package population

import (
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// churn_test.go: churn gates a user's arrivals at generation, so a
// churned population's rounds hold only online senders, and the messages
// that survive keep the recipients the static population drew for them.

// churnedUsers builds the deterministic test population with a private
// presence schedule per user (mean 50 ms up / 50 ms down, so a short run
// crosses many churn cycles).
func churnedUsers(t *testing.T, n int) ([]User, int) {
	t.Helper()
	users, recipients := testUsers(t, n, true)
	for u := range users {
		sched, err := traffic.NewOnOffSchedule(0.05, 0.05, xrand.New(uint64(9000+u)))
		if err != nil {
			t.Fatal(err)
		}
		users[u].Presence = sched
	}
	return users, recipients
}

func buildEngine(t *testing.T, n int, churn bool) *Engine {
	t.Helper()
	var (
		users      []User
		recipients int
	)
	if churn {
		users, recipients = churnedUsers(t, n)
	} else {
		users, recipients = testUsers(t, n, true)
	}
	e, err := NewEngine(users, recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	return e
}

// TestChurnedRoundsOnlyOnlineSenders: every message in a round was sent
// while its sender was online — churn gates arrivals at generation.
func TestChurnedRoundsOnlyOnlineSenders(t *testing.T) {
	e := buildEngine(t, 12, true)
	// Fresh schedules from the same seeds to audit independently.
	var r Round
	total := 0
	for i := 0; i < 200; i++ {
		if err := e.NextRound(8, &r); err != nil {
			t.Fatal(err)
		}
		for j, u := range r.Users {
			check, err := traffic.NewOnOffSchedule(0.05, 0.05, xrand.New(uint64(9000+int(u))))
			if err != nil {
				t.Fatal(err)
			}
			if !check.UpAt(r.Times[j]) {
				t.Fatalf("round %d: user %d sent at %v while offline", i, u, r.Times[j])
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no messages observed")
	}
}

// TestChurnPreservesRecipientStreams: with recipient draws consumed for
// every generated arrival (present or not), the surviving messages of a
// churned population carry the same (user, arrival-index) -> recipient
// assignment as the static population — churn perturbs which messages
// exist, never how survivors draw.
func TestChurnPreservesRecipientStreams(t *testing.T) {
	type msg struct {
		t    float64
		rcpt int32
	}
	collect := func(churn bool) map[int32][]msg {
		e := buildEngine(t, 8, churn)
		var r Round
		out := make(map[int32][]msg)
		for i := 0; i < 300; i++ {
			if err := e.NextRound(8, &r); err != nil {
				t.Fatal(err)
			}
			for j, u := range r.Users {
				out[u] = append(out[u], msg{t: r.Times[j], rcpt: r.Rcpts[j]})
			}
		}
		return out
	}
	static := collect(false)
	churned := collect(true)
	matched := 0
	for u, msgs := range churned {
		// Every surviving churned message must appear in the static run
		// with the identical (time, recipient) pair: same arrival, same
		// draw, only filtered.
		si := 0
		for _, m := range msgs {
			for si < len(static[u]) && static[u][si].t < m.t {
				si++
			}
			if si >= len(static[u]) || static[u][si].t != m.t {
				// The static run's horizon may simply end earlier in round
				// count; stop matching this user at the boundary.
				break
			}
			if static[u][si].rcpt != m.rcpt {
				t.Fatalf("user %d arrival at %v drew recipient %d churned vs %d static",
					u, m.t, m.rcpt, static[u][si].rcpt)
			}
			matched++
		}
	}
	if matched < 100 {
		t.Fatalf("only %d churned messages matched against the static run", matched)
	}
}
