package pagerank

import (
	"math"
	"testing"

	"gospaces/internal/nodeconfig"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

func execCtx() nodeconfig.ExecContext {
	return nodeconfig.ExecContext{Clock: vclock.NewReal(), Node: "test"}
}

func TestStochasticMatrixColumnsSumToOne(t *testing.T) {
	g := SyntheticCluster(120, 7)
	m := g.Stochastic()
	for j := 0; j < g.N; j++ {
		var sum float64
		for i := 0; i < g.N; i++ {
			sum += m[i][j]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", j, sum)
		}
	}
}

func TestStochasticMatchesPaperConstruction(t *testing.T) {
	// Page 0 links to 1 and 2: column 0 must hold 1/2 at rows 1 and 2.
	g := Graph{N: 4, Links: [][]int{{1, 2}, {0}, {}, {0, 1, 2}}}
	m := g.Stochastic()
	if m[1][0] != 0.5 || m[2][0] != 0.5 || m[0][0] != 0 || m[3][0] != 0 {
		t.Fatalf("column 0 = [%v %v %v %v]", m[0][0], m[1][0], m[2][0], m[3][0])
	}
	// Dangling page 2 spreads uniformly.
	for i := 0; i < 4; i++ {
		if m[i][2] != 0.25 {
			t.Fatalf("dangling column entry m[%d][2] = %v", i, m[i][2])
		}
	}
}

func TestMultiplyRowsAgreesWithSerial(t *testing.T) {
	g := SyntheticCluster(100, 3)
	m := g.Stochastic()
	want := PowerIterate(m, 0.85, 1)
	x := make([]float64, g.N)
	for i := range x {
		x[i] = 1.0 / float64(g.N)
	}
	got := make([]float64, g.N)
	for r := 0; r < g.N; r += 17 {
		r1 := r + 17
		if r1 > g.N {
			r1 = g.N
		}
		strip, err := MultiplyRows(m, x, r, r1, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		copy(got[r:r1], strip)
	}
	if d := L1Diff(got, want); d > 1e-12 {
		t.Fatalf("strip product differs from serial by %g", d)
	}
}

func TestPowerIterationConverges(t *testing.T) {
	g := SyntheticCluster(200, 11)
	m := g.Stochastic()
	prev := PowerIterate(m, 0.85, 5)
	cur := PowerIterate(m, 0.85, 30)
	next := PowerIterate(m, 0.85, 31)
	if d := L1Diff(cur, next); d > 1e-6 {
		t.Fatalf("not converged after 30 iterations: step size %g", d)
	}
	if L1Diff(prev, cur) < 1e-12 {
		t.Fatal("iteration 5 already identical to 30 — suspicious")
	}
	// Ranks form a probability distribution.
	var sum float64
	for _, v := range cur {
		if v < 0 {
			t.Fatalf("negative rank %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestHubsRankHigh(t *testing.T) {
	g := SyntheticCluster(500, 42)
	scores := PowerIterate(g.Stochastic(), 0.85, 40)
	// Average hub score must exceed average non-hub score (hubs receive
	// 30% of all links).
	hubs := 500 / 50
	var hubSum, otherSum float64
	for i, s := range scores {
		if i < hubs {
			hubSum += s
		} else {
			otherSum += s
		}
	}
	if hubSum/float64(hubs) <= otherSum/float64(500-hubs) {
		t.Fatal("hub pages do not outrank others")
	}
}

func TestMultiplyRowsValidation(t *testing.T) {
	m := [][]float64{{1, 0}, {0, 1}}
	x := []float64{1, 0}
	if _, err := MultiplyRows(m, x, 1, 1, 0.85); err == nil {
		t.Fatal("empty strip accepted")
	}
	if _, err := MultiplyRows(m, x, 0, 3, 0.85); err == nil {
		t.Fatal("overlong strip accepted")
	}
	if _, err := MultiplyRows([][]float64{{1}}, x, 0, 1, 0.85); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestPrefetchSelectsTopRankedSuccessors(t *testing.T) {
	g := Graph{N: 5, Links: [][]int{{1, 2, 3, 4}, {}, {}, {}, {}}}
	scores := []float64{0, 0.1, 0.4, 0.2, 0.3}
	got := Prefetch(g, scores, 0, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("prefetch = %v, want [2 4]", got)
	}
	if got := Prefetch(g, scores, 1, 3); len(got) != 0 {
		t.Fatalf("leaf page prefetch = %v", got)
	}
	if got := Prefetch(g, scores, 9, 3); got != nil {
		t.Fatalf("out-of-range page prefetch = %v", got)
	}
}

func TestJobPlanMatchesPaperDecomposition(t *testing.T) {
	j := NewJob(DefaultJobConfig()) // 500×500, strips of 20
	var tasks []Task
	if err := j.Plan(func(e tuplespace.Entry) error {
		tasks = append(tasks, e.(Task))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 25 {
		t.Fatalf("planned %d tasks, want 25", len(tasks))
	}
	for _, task := range tasks {
		if task.R1-task.R0 != 20 || len(task.X) != 500 || task.Round != 1 {
			t.Fatalf("bad task %+v", task)
		}
	}
}

func TestJobIterativePhasesMatchSerial(t *testing.T) {
	cfg := DefaultJobConfig()
	cfg.Graph = SyntheticCluster(80, 5)
	cfg.StripRows = 16
	cfg.Iterations = 6
	cfg.WorkPerStrip = 0
	j := NewJob(cfg)
	prog := &program{cfg: bundleParams{Damping: cfg.Damping, StripRows: cfg.StripRows}, matrix: j.matrix}

	phases := 0
	for {
		phases++
		var tasks []Task
		if err := j.Plan(func(e tuplespace.Entry) error { tasks = append(tasks, e.(Task)); return nil }); err != nil {
			t.Fatal(err)
		}
		// Workers may execute out of order.
		for i := len(tasks) - 1; i >= 0; i-- {
			res, err := prog.Execute(execCtx(), tasks[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Aggregate(res); err != nil {
				t.Fatal(err)
			}
		}
		if !j.NextPhase() {
			break
		}
	}
	if phases != 6 {
		t.Fatalf("ran %d phases, want 6", phases)
	}
	want := PowerIterate(j.matrix, cfg.Damping, 6)
	if d := L1Diff(j.Ranks(), want); d > 1e-12 {
		t.Fatalf("distributed ranks differ from serial by %g", d)
	}
}

func TestResultTemplateTracksRound(t *testing.T) {
	cfg := DefaultJobConfig()
	cfg.Graph = SyntheticCluster(40, 1)
	cfg.Iterations = 3
	j := NewJob(cfg)
	tmpl := j.ResultTemplate().(Result)
	if tmpl.Round != 1 {
		t.Fatalf("round = %d", tmpl.Round)
	}
	_ = j.Plan(func(tuplespace.Entry) error { return nil })
	j.NextPhase()
	tmpl = j.ResultTemplate().(Result)
	if tmpl.Round != 2 {
		t.Fatalf("round after NextPhase = %d", tmpl.Round)
	}
}

func TestAggregateValidation(t *testing.T) {
	j := NewJob(DefaultJobConfig())
	if err := j.Aggregate(Result{Job: JobName, ID: 1, Round: 1, R0: 0, R1: 20, Y: []float64{1}}); err == nil {
		t.Fatal("short strip accepted")
	}
	if err := j.Aggregate(Task{}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

func TestSyntheticClusterDeterministic(t *testing.T) {
	a := SyntheticCluster(100, 9)
	b := SyntheticCluster(100, 9)
	for j := range a.Links {
		if len(a.Links[j]) != len(b.Links[j]) {
			t.Fatal("graph not deterministic")
		}
		for k := range a.Links[j] {
			if a.Links[j][k] != b.Links[j][k] {
				t.Fatal("graph not deterministic")
			}
		}
	}
}
