package experiment

import (
	"bufio"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// armsrace_test.go: the SDA arms-race league table's contract. The
// committed golden table carries the asserted monotonicity — the
// least-squares estimator discloses no slower than the classic one in
// every mix cell, and dummy-policy resistance orders none < uniform <
// adaptive — and the cells themselves must be worker-invariant. The
// golden CI job keeps the committed table byte-identical to what the
// code produces, so asserting on the committed numbers pins the
// property to exactly the table shipped.

// readGoldenTable parses a committed golden table: '#' lines are
// notes, the first bare line is the column header, every following line
// is one row of floats.
func readGoldenTable(t *testing.T, path string) (cols []string, rows [][]float64) {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if cols == nil {
			cols = fields
			continue
		}
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("%s: bad cell %q: %v", path, f, err)
			}
			row[i] = v
		}
		if len(row) != len(cols) {
			t.Fatalf("%s: row has %d cells for %d columns", path, len(row), len(cols))
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cols, rows
}

// TestArmsRaceGoldenMonotone asserts the league table's two orderings
// on the committed golden table (testdata/golden, scale 0.05 seed 3).
func TestArmsRaceGoldenMonotone(t *testing.T) {
	cols, rows := readGoldenTable(t, "../../testdata/golden/ext-sda-arms-race.txt")
	checkTable(t, "ext-sda-arms-race", cols, rows)
	idx := func(name string) int {
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing from the golden table", name)
		return -1
	}
	cEst, cMix, cDum := idx("estimator"), idx("mix"), idx("dummies")
	cFrac, cRounds := idx("disclosed_frac"), idx("mean_rounds")
	if len(rows) != 27 {
		t.Fatalf("golden table has %d rows, want 27", len(rows))
	}
	type cell struct{ frac, rounds float64 }
	table := map[[3]int]cell{}
	for _, row := range rows {
		key := [3]int{int(row[cEst]), int(row[cMix]), int(row[cDum])}
		if _, dup := table[key]; dup {
			t.Fatalf("duplicate cell %v", key)
		}
		table[key] = cell{frac: row[cFrac], rounds: row[cRounds]}
	}
	// Least-squares discloses no slower than classic in every mix cell:
	// at least as many targets disclosed, in no more rounds.
	for mix := 0; mix < 3; mix++ {
		for dum := 0; dum < 3; dum++ {
			classic := table[[3]int{0, mix, dum}]
			ls := table[[3]int{1, mix, dum}]
			if ls.rounds > classic.rounds {
				t.Errorf("mix=%d dummies=%d: least-squares %.1f rounds vs classic %.1f — slower",
					mix, dum, ls.rounds, classic.rounds)
			}
			if ls.frac < classic.frac {
				t.Errorf("mix=%d dummies=%d: least-squares disclosed %.3f vs classic %.3f — fewer",
					mix, dum, ls.frac, classic.frac)
			}
		}
	}
	// Resistance orders none < uniform < adaptive for every estimator
	// and mix: strictly more rounds to disclose, never more targets
	// disclosed.
	for est := 0; est < 3; est++ {
		for mix := 0; mix < 3; mix++ {
			none := table[[3]int{est, mix, 0}]
			uniform := table[[3]int{est, mix, 1}]
			adaptive := table[[3]int{est, mix, 2}]
			if !(none.rounds < uniform.rounds && uniform.rounds < adaptive.rounds) {
				t.Errorf("est=%d mix=%d: resistance not ordered: none %.1f, uniform %.1f, adaptive %.1f rounds",
					est, mix, none.rounds, uniform.rounds, adaptive.rounds)
			}
			if none.frac < uniform.frac || uniform.frac < adaptive.frac {
				t.Errorf("est=%d mix=%d: disclosed fractions not ordered: none %.3f, uniform %.3f, adaptive %.3f",
					est, mix, none.frac, uniform.frac, adaptive.frac)
			}
		}
	}
}

// TestArmsRaceWorkerInvariance: arms-race cells are byte-identical in
// the nested worker width, Options.Workers. One cell per estimator kind
// (the cheap no-dummy cells), each at widths 1, 4 and GOMAXPROCS.
func TestArmsRaceWorkerInvariance(t *testing.T) {
	at := func(workers int) Options { return Options{Scale: 0.05, Seed: 3, Workers: workers} }
	for _, cell := range []int{3, 15, 21} { // classic/pool, ls/timed, ml/pool
		ref, err := extSDAArmsRaceCells.run(at(1), cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			got, err := extSDAArmsRaceCells.run(at(workers), cell)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("cell %d at %d workers: %v, want %v", cell, workers, got, ref)
			}
		}
	}
}

// TestArmsRaceCellShape: the grid is complete and every cell reports
// its own coordinates in the first three columns.
func TestArmsRaceCellShape(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 3, Workers: 1}
	if n := extSDAArmsRaceCells.ncells(o); n != 27 {
		t.Fatalf("ncells = %d, want 27", n)
	}
	if n := scaleSDALSCells.ncells(o); n != len(scaleDisclosureCovers) {
		t.Fatalf("scale-sda-ls ncells = %d, want %d", n, len(scaleDisclosureCovers))
	}
	row, err := extSDAArmsRaceCells.run(o, 16) // est=1, mix=2, dum=1
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != len(extSDAArmsRaceCells.columns) {
		t.Fatalf("cell row has %d values for %d columns", len(row), len(extSDAArmsRaceCells.columns))
	}
	if row[0] != 1 || row[1] != 2 || row[2] != 1 {
		t.Fatalf("cell 16 reports coordinates (%v,%v,%v), want (1,2,1)", row[0], row[1], row[2])
	}
	if row[3] < 0 || row[3] > 1 {
		t.Fatalf("disclosed_frac %v out of [0,1]", row[3])
	}
	if row[5] < 0 || row[5] > 1 {
		t.Fatalf("mean_anonymity %v out of [0,1]", row[5])
	}
}
