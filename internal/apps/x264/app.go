package x264

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/influence"
	"repro/internal/knobs"
	"repro/internal/qos"
	"repro/internal/workload"
)

// Knob defaults: the PARSEC native settings (Sec. 4.2).
const (
	DefaultSubme   = 7
	DefaultMerange = 16
	DefaultRef     = 5
)

// planePSNR wraps qos.PSNR, capping the lossless case at 99 dB so the
// distortion metric stays finite.
func planePSNR(ref, rec []uint8) (float64, error) {
	p, err := qos.PSNR(ref, rec)
	if err != nil {
		return 0, err
	}
	if math.IsInf(p, 1) || p > 99 {
		p = 99
	}
	return p, nil
}

// Options sizes the benchmark. Zero fields take the noted defaults.
type Options struct {
	// TrainingVideos and ProductionVideos count the input videos
	// (defaults 2 and 3; paper: 4 and 12).
	TrainingVideos   int
	ProductionVideos int
	// Video shapes each generated input (default 128×64×10 frames;
	// paper: 1080p, 200+ frames).
	Video VideoOptions
	// Seed randomizes scene generation (default 1).
	Seed int64
}

func (o *Options) fill() {
	if o.TrainingVideos == 0 {
		o.TrainingVideos = 2
	}
	if o.ProductionVideos == 0 {
		o.ProductionVideos = 3
	}
	o.Video.fill()
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// App is the x264 benchmark.
type App struct {
	mu  sync.RWMutex
	cfg Config

	train []*Video
	prod  []*Video
}

var _ workload.Traceable = (*App)(nil)
var _ workload.Bindable = (*App)(nil)

// New builds the benchmark with synthetic input videos.
func New(opts Options) (*App, error) {
	opts.fill()
	a := &App{cfg: deriveConfig(DefaultSubme, DefaultMerange, DefaultRef)}
	var err error
	a.train, err = generateInputSet("train", opts.TrainingVideos, opts.Video, opts.Seed)
	if err != nil {
		return nil, err
	}
	a.prod, err = generateInputSet("prod", opts.ProductionVideos, opts.Video, opts.Seed+100003)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Name implements workload.App.
func (a *App) Name() string { return "x264" }

// Specs implements workload.App: subme 1–7, merange 1–16, ref 1–5 with
// the PARSEC native defaults.
func (a *App) Specs() []knobs.Spec {
	return []knobs.Spec{
		{Name: "subme", Values: knobs.Range(1, 7, 1), Default: DefaultSubme},
		{Name: "merange", Values: knobs.Range(1, 16, 1), Default: DefaultMerange},
		{Name: "ref", Values: knobs.Range(1, 5, 1), Default: DefaultRef},
	}
}

// Apply implements workload.App.
func (a *App) Apply(s knobs.Setting) {
	cfg := deriveConfig(s[0], s[1], s[2])
	a.mu.Lock()
	a.cfg = cfg
	a.mu.Unlock()
}

// ConfigSnapshot returns the live control variables.
func (a *App) ConfigSnapshot() Config {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.cfg
}

// TraceInit implements workload.Traceable: the three knob parameters flow
// into four control variables through min/max/offset arithmetic,
// mirroring deriveConfig exactly.
func (a *App) TraceInit(tr *influence.Tracer, s knobs.Setting) {
	subme := tr.Param("subme", float64(s[0]))
	merange := tr.Param("merange", float64(s[1]))
	ref := tr.Param("ref", float64(s[2]))
	clamp := func(v influence.Val, lo, hi float64) influence.Val {
		return influence.Min(influence.Max(v, influence.Const(lo)), influence.Const(hi))
	}
	half := influence.Add(
		clamp(influence.Sub(subme, influence.Const(1)), 0, 2),
		clamp(influence.Sub(subme, influence.Const(5)), 0, 2))
	quarter := influence.Add(
		clamp(influence.Sub(subme, influence.Const(3)), 0, 2),
		clamp(influence.Sub(subme, influence.Const(5)), 0, 2))
	tr.Store("searchRange", "encoder.go:deriveConfig", merange)
	tr.Store("refFrames", "encoder.go:deriveConfig", ref)
	tr.Store("halfPelIters", "encoder.go:deriveConfig", half)
	tr.Store("quarterPelIters", "encoder.go:deriveConfig", quarter)
	tr.FirstHeartbeat()
	_ = tr.Load("searchRange", "me.go:searchRef")
	_ = tr.Load("refFrames", "encoder.go:encodePFrame")
	_ = tr.Load("halfPelIters", "me.go:refine")
	_ = tr.Load("quarterPelIters", "me.go:refine")
}

// RegisterVars implements workload.Bindable. The four control variables
// are staged and committed atomically by the final writer.
func (a *App) RegisterVars(reg *knobs.Registry) error {
	staged := &Config{}
	reg1 := func(name string, set func(float64)) error {
		return reg.RegisterVar(name, func(v knobs.Value) { set(v[0]) })
	}
	if err := reg1("searchRange", func(f float64) { staged.SearchRange = int(f) }); err != nil {
		return err
	}
	if err := reg1("refFrames", func(f float64) { staged.RefFrames = int(f) }); err != nil {
		return err
	}
	if err := reg1("halfPelIters", func(f float64) { staged.HalfPelIters = int(f) }); err != nil {
		return err
	}
	return reg1("quarterPelIters", func(f float64) {
		staged.QuarterPelIters = int(f)
		a.mu.Lock()
		a.cfg = *staged
		a.mu.Unlock()
	})
}

// Streams implements workload.App.
func (a *App) Streams(set workload.InputSet) []workload.Stream {
	src := a.train
	if set == workload.Production {
		src = a.prod
	}
	out := make([]workload.Stream, len(src))
	for i, v := range src {
		out[i] = &videoStream{app: a, video: v}
	}
	return out
}

// Output is the encoded-video abstraction of Sec. 4.2: mean PSNR (as the
// H.264 reference decoder would measure) and total encoded size.
type Output struct {
	MeanPSNR float64
	Bits     float64
}

// Loss implements workload.App: distortion over {PSNR, bitrate} with
// equal weights.
func (a *App) Loss(baseline, observed workload.Output) float64 {
	b := baseline.(Output)
	o := observed.(Output)
	d, err := qos.Distortion(
		qos.Abstraction{b.MeanPSNR, b.Bits},
		qos.Abstraction{o.MeanPSNR, o.Bits},
	)
	if err != nil {
		panic(fmt.Sprintf("x264: %v", err))
	}
	return d
}

// videoStream adapts a Video to workload.Stream.
type videoStream struct {
	app   *App
	video *Video
}

func (s *videoStream) Name() string { return s.video.Name() }
func (s *videoStream) Len() int     { return len(s.video.Frames) }

func (s *videoStream) NewRun() workload.Run {
	return &run{s: s, enc: &Encoder{}}
}

type run struct {
	s     *videoStream
	enc   *Encoder
	next  int
	bits  float64
	psnr  float64
	count int
}

// Step encodes one frame — one heartbeat of the encoder's main loop —
// re-reading the control variables so a dynamic-knob change takes effect
// on the next frame.
func (r *run) Step() (float64, bool) {
	if r.next >= len(r.s.video.Frames) {
		return 0, false
	}
	cfg := r.s.app.ConfigSnapshot()
	st, err := r.enc.EncodeFrame(r.s.video.Frames[r.next], cfg)
	if err != nil {
		panic(fmt.Sprintf("x264: %v", err)) // frame sizes are validated at generation
	}
	r.next++
	r.bits += float64(st.Bits)
	r.psnr += st.PSNR
	r.count++
	return st.Work, true
}

func (r *run) Output() workload.Output {
	if r.count == 0 {
		return Output{}
	}
	return Output{MeanPSNR: r.psnr / float64(r.count), Bits: r.bits}
}
