package raytrace

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// JobName is the program bundle name for this application.
const JobName = "raytrace"

// EntryPoint is the nodeconfig factory key.
const EntryPoint = "raytrace.Worker"

// Task is one strip-rendering task: the paper's "four coordinates
// describing the region of computation".
type Task struct {
	Job    string `space:"index"`
	ID     int    // 1-based: zero is the wildcard and never a real ID
	X0, X1 int
	W, H   int
	// Trace is the observability carrier (zero = untraced/wildcard).
	Trace obs.TraceContext
}

// Result carries a rendered strip's pixels — the paper notes this
// application's outputs are relatively large (an array of pixel values).
type Result struct {
	Job    string `space:"index"`
	ID     int
	X0, X1 int
	Pixels []byte
	Node   string
	// Trace carries the worker's execute span back to the master.
	Trace obs.TraceContext
}

type bundleParams struct {
	Scene        Scene
	WorkPerPixel time.Duration
}

func init() {
	transport.RegisterType(Task{})
	transport.RegisterType(Result{})
	transport.RegisterType(bundleParams{})
	nodeconfig.RegisterFactory(EntryPoint, func(params []byte) (nodeconfig.Program, error) {
		cfg, err := nodeconfig.DecodeParams[bundleParams](params)
		if err != nil {
			return nil, fmt.Errorf("raytrace: decode bundle params: %w", err)
		}
		return &program{scene: cfg.Scene, workPerPixel: cfg.WorkPerPixel}, nil
	})
}

// JobConfig sizes the application.
type JobConfig struct {
	Scene Scene
	// Width × Height is the image plane (paper: 600×600).
	Width, Height int
	// StripWidth is the task slice width (paper: 25 → 24 tasks).
	StripWidth int
	// WorkPerPixel is the modeled reference-node CPU time per pixel.
	WorkPerPixel time.Duration
	// PlanningCostPerTask / AggregationCostPerResult are master costs.
	PlanningCostPerTask      time.Duration
	AggregationCostPerResult time.Duration
}

// DefaultJobConfig reproduces the paper's §5.1.2 setup (costs calibrated
// in EXPERIMENTS.md; total planning ≈ the constant 500 ms of Figure 7).
func DefaultJobConfig() JobConfig {
	return JobConfig{
		Scene:                    DefaultScene(),
		Width:                    600,
		Height:                   600,
		StripWidth:               25,
		WorkPerPixel:             200 * time.Microsecond,
		PlanningCostPerTask:      20 * time.Millisecond,
		AggregationCostPerResult: 30 * time.Millisecond,
	}
}

// Job is the ray-tracing application as a framework job.
type Job struct {
	cfg JobConfig

	mu     sync.Mutex
	pixels []byte       // final w*h*3 image
	got    int          // results aggregated
	strips map[int]bool // distinct strips aggregated, by first column
}

// NewJob returns a job for cfg.
func NewJob(cfg JobConfig) *Job {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		cfg.Width, cfg.Height = 600, 600
	}
	if cfg.StripWidth <= 0 || cfg.StripWidth > cfg.Width {
		cfg.StripWidth = 25
	}
	return &Job{cfg: cfg, pixels: make([]byte, cfg.Width*cfg.Height*3), strips: make(map[int]bool)}
}

// Name implements core.Job.
func (j *Job) Name() string { return JobName }

// Plan implements core.Job.
func (j *Job) Plan(emit func(tuplespace.Entry) error) error {
	id := 1
	for x := 0; x < j.cfg.Width; x += j.cfg.StripWidth {
		x1 := x + j.cfg.StripWidth
		if x1 > j.cfg.Width {
			x1 = j.cfg.Width
		}
		taskID := id
		id++
		if err := emit(Task{Job: JobName, ID: taskID, X0: x, X1: x1, W: j.cfg.Width, H: j.cfg.Height}); err != nil {
			return err
		}
	}
	return nil
}

// TaskTemplate implements core.Job.
func (j *Job) TaskTemplate() tuplespace.Entry { return Task{Job: JobName} }

// ResultTemplate implements core.Job.
func (j *Job) ResultTemplate() tuplespace.Entry { return Result{Job: JobName} }

// Aggregate implements core.Job: compose the strip into the image.
func (j *Job) Aggregate(e tuplespace.Entry) error {
	r, ok := e.(Result)
	if !ok {
		return fmt.Errorf("raytrace: unexpected result entry %T", e)
	}
	if r.X0 < 0 || r.X1 > j.cfg.Width || r.X0 >= r.X1 {
		return fmt.Errorf("raytrace: result strip [%d,%d) out of range", r.X0, r.X1)
	}
	if want := (r.X1 - r.X0) * j.cfg.Height * 3; len(r.Pixels) != want {
		return fmt.Errorf("raytrace: strip [%d,%d) has %d bytes, want %d", r.X0, r.X1, len(r.Pixels), want)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sw := r.X1 - r.X0
	for y := 0; y < j.cfg.Height; y++ {
		src := r.Pixels[y*sw*3 : (y+1)*sw*3]
		dst := j.pixels[(y*j.cfg.Width+r.X0)*3:]
		copy(dst[:sw*3], src)
	}
	j.got++
	j.strips[r.X0] = true
	return nil
}

// Bundle implements core.Job: the scene ships inside the program bundle,
// so tasks stay small (just coordinates), as in the paper.
func (j *Job) Bundle() nodeconfig.Bundle {
	return nodeconfig.Bundle{
		Name:       JobName,
		Version:    1,
		EntryPoint: EntryPoint,
		Params:     nodeconfig.EncodeParams(bundleParams{Scene: j.cfg.Scene, WorkPerPixel: j.cfg.WorkPerPixel}),
		Payload:    make([]byte, 160<<10),
	}
}

// PlanningCost implements core.Job.
func (j *Job) PlanningCost() time.Duration { return j.cfg.PlanningCostPerTask }

// AggregationCost implements core.Job.
func (j *Job) AggregationCost() time.Duration { return j.cfg.AggregationCostPerResult }

// Image returns the composed image (RGB, row-major) and whether every
// strip has been aggregated exactly once.
func (j *Job) Image() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := (j.cfg.Width + j.cfg.StripWidth - 1) / j.cfg.StripWidth
	complete := j.got == n && len(j.strips) == n
	out := make([]byte, len(j.pixels))
	copy(out, j.pixels)
	return out, complete
}

// Size returns the image dimensions.
func (j *Job) Size() (w, h int) { return j.cfg.Width, j.cfg.Height }

// WritePPM renders the composed image as a binary PPM (P6) stream.
func (j *Job) WritePPM(w *bytes.Buffer) {
	img, _ := j.Image()
	fmt.Fprintf(w, "P6\n%d %d\n255\n", j.cfg.Width, j.cfg.Height)
	w.Write(img)
}

// program is the downloaded worker code.
type program struct {
	scene        Scene
	workPerPixel time.Duration
}

// Name implements nodeconfig.Program.
func (p *program) Name() string { return JobName }

// Execute implements nodeconfig.Program.
func (p *program) Execute(ctx nodeconfig.ExecContext, e tuplespace.Entry) (tuplespace.Entry, error) {
	t, ok := e.(Task)
	if !ok {
		return nil, fmt.Errorf("raytrace: unexpected task entry %T", e)
	}
	pixels, err := p.scene.RenderStrip(t.W, t.H, t.X0, t.X1)
	if err != nil {
		return nil, err
	}
	if ctx.Machine != nil && p.workPerPixel > 0 {
		work := time.Duration(int64(p.workPerPixel) * int64((t.X1-t.X0)*t.H))
		ctx.Machine.Compute(work, 97)
	}
	return Result{Job: JobName, ID: t.ID, X0: t.X0, X1: t.X1, Pixels: pixels, Node: ctx.Node}, nil
}
