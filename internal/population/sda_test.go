package population

import "testing"

// Without cover traffic a small population must disclose its targets'
// contact sets quickly, and the reported rounds must reflect the
// checkpoint granularity.
// runDisclosure runs the attack to completion: StartDisclosure plus one
// Step over the full round budget.
func runDisclosure(e *Engine, cfg DisclosureConfig) (*DisclosureResult, error) {
	run, err := e.StartDisclosure(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := run.Step(run.d.cfg.MaxRounds); err != nil {
		return nil, err
	}
	return run.Result(), nil
}

func TestDisclosureIdentifiesContacts(t *testing.T) {
	users, recipients := testUsers(t, 16, false)
	e, err := NewEngine(users, recipients)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DisclosureConfig{
		Batch:     6,
		Targets:   []int{0, 3, 8, 13},
		MaxRounds: 3000,
	}
	res, err := runDisclosure(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DisclosedFrac != 1 {
		t.Fatalf("disclosed %.2f of targets without cover, want all (result %+v)",
			res.DisclosedFrac, res.Targets)
	}
	for _, tg := range res.Targets {
		if !tg.Disclosed {
			t.Errorf("target %d not disclosed", tg.User)
		}
		if tg.Rounds <= 0 || tg.Rounds > cfg.MaxRounds {
			t.Errorf("target %d rounds %d out of range", tg.User, tg.Rounds)
		}
		if tg.Rounds%25 != 0 {
			t.Errorf("target %d rounds %d not aligned to the checkpoint granularity", tg.User, tg.Rounds)
		}
		if tg.RoundsWith <= 0 {
			t.Errorf("target %d never appeared in a round", tg.User)
		}
		if tg.DegreeOfAnonymity <= 0 || tg.DegreeOfAnonymity >= 1 {
			t.Errorf("target %d anonymity %v out of (0,1)", tg.User, tg.DegreeOfAnonymity)
		}
	}
	if res.MeanRounds <= 0 || res.MeanRounds >= float64(cfg.MaxRounds) {
		t.Errorf("mean rounds %v out of range", res.MeanRounds)
	}
}

// Cover traffic must slow disclosure: more rounds, higher residual
// anonymity.
func TestDisclosureCoverResists(t *testing.T) {
	run := func(cover bool) *DisclosureResult {
		users, recipients := testUsers(t, 16, cover)
		e, err := NewEngine(users, recipients)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runDisclosure(e, DisclosureConfig{
			Batch:     6,
			Targets:   []int{0, 3, 8, 13},
			MaxRounds: 3000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clear := run(false)
	covered := run(true)
	if covered.MeanRounds <= clear.MeanRounds {
		t.Errorf("cover traffic should slow disclosure: %v rounds covered vs %v clear",
			covered.MeanRounds, clear.MeanRounds)
	}
	if covered.MeanAnonymity <= clear.MeanAnonymity {
		t.Errorf("cover traffic should raise anonymity: %v covered vs %v clear",
			covered.MeanAnonymity, clear.MeanAnonymity)
	}
}

func TestDisclosureValidation(t *testing.T) {
	users, recipients := testUsers(t, 8, false)
	e, err := NewEngine(users, recipients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDisclosure(e, DisclosureConfig{Targets: []int{99}}); err == nil {
		t.Error("out-of-range target should fail")
	}
	e2, _ := NewEngine(users, recipients)
	if _, err := runDisclosure(e2, DisclosureConfig{Targets: []int{1, 1}}); err == nil {
		t.Error("duplicate target should fail")
	}
	e3, _ := NewEngine(users, recipients)
	if _, err := runDisclosure(e3, DisclosureConfig{Batch: -1}); err == nil {
		t.Error("negative batch should fail")
	}
}
