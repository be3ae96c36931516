package experiment

import "testing"

// TestScaleRunnersAtFloor runs the two million-user runners at scale
// 0.01, their 1e4-user floor, through the checks every runner's table
// gets. Both build their populations through core's lazy engine, so this
// covers its frontier init pass and user warm-up end to end.
func TestScaleRunnersAtFloor(t *testing.T) {
	for _, id := range []string{"scale-disclosure", "scale-sda-ls"} {
		tbl := runTableWith(t, id, Options{Scale: 0.01, Seed: 3})
		if users := col(tbl, "users"); users == nil || users[0] != 10_000 {
			t.Errorf("%s: users column %v, want the 1e4-user floor", id, users)
		}
	}
}
