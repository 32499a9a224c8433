package daemon

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dynunlock"
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/stream"
)

// Job lifecycle states. The machine is linear with three exits:
//
//	queued → admitted → running → done
//	                            → failed
//	         (cancel)           → evicted
//	running → draining → done|failed|evicted   (shutdown window)
//
// A cancel against a queued/admitted job evicts it before any work
// happens; against a running job it cancels the attack context, and the
// job finishes as evicted at the solver's next checkpoint with its
// partial bundle on disk (resumable).
const (
	StateQueued   = "queued"
	StateAdmitted = "admitted"
	StateRunning  = "running"
	StateDraining = "draining"
	StateDone     = "done"
	StateFailed   = "failed"
	StateEvicted  = "evicted"
)

// JobSpec is the POST /jobs request body. Resume names a previous job
// (its ID, which is also its bundle directory inside the data directory)
// whose partial bundle seeds this one: every other field is then taken
// from that bundle's manifest and the recorded transcript prefix is
// replayed before the attack touches silicon.
type JobSpec struct {
	Benchmark string `json:"benchmark,omitempty"`
	KeyBits   int    `json:"keyBits,omitempty"`
	Policy    string `json:"policy,omitempty"` // static | perpattern | percycle (default)
	Period    int    `json:"period,omitempty"`
	Scale     int    `json:"scale,omitempty"`
	Trials    int    `json:"trials,omitempty"`
	Mode      string `json:"mode,omitempty"` // linear (default) | direct
	Limit     int    `json:"limit,omitempty"`
	MaxIters  int    `json:"maxIters,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Resume    string `json:"resume,omitempty"`
}

// Job is one submitted attack with its lifecycle state.
type Job struct {
	ID   string
	Spec JobSpec
	// ResumedFrom is the source job ID when this job resumes a partial
	// bundle.
	ResumedFrom string

	mu        sync.Mutex
	state     string
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	cancelled bool
	bundle    string
	replayed  uint64
	result    *dynunlock.ExperimentResult
}

// JobStatus is the GET /jobs/{id} response body.
type JobStatus struct {
	ID               string         `json:"id"`
	State            string         `json:"state"`
	Spec             JobSpec        `json:"spec"`
	Error            string         `json:"error,omitempty"`
	Bundle           string         `json:"bundle,omitempty"`
	ResumedFrom      string         `json:"resumedFrom,omitempty"`
	ReplayedSessions uint64         `json:"replayedSessions,omitempty"`
	CreatedAt        string         `json:"createdAt"`
	StartedAt        string         `json:"startedAt,omitempty"`
	FinishedAt       string         `json:"finishedAt,omitempty"`
	Result           *JobResultView `json:"result,omitempty"`
}

// JobResultView summarizes a finished job's experiment result; the full
// per-trial record lives in the bundle's result.json.
type JobResultView struct {
	Trials     int     `json:"trials"`
	Candidates float64 `json:"avgCandidates"`
	Iterations float64 `json:"avgIterations"`
	Seconds    float64 `json:"avgSeconds"`
	Succeeded  bool    `json:"succeeded"`
	Stopped    bool    `json:"stopped,omitempty"`
	StopReason string  `json:"stopReason,omitempty"`
}

// Status snapshots the job for the HTTP API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:               j.ID,
		State:            j.state,
		Spec:             j.Spec,
		Error:            j.errMsg,
		Bundle:           j.bundle,
		ResumedFrom:      j.ResumedFrom,
		ReplayedSessions: j.replayed,
		CreatedAt:        j.created.Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.Format(time.RFC3339Nano)
	}
	if j.result != nil {
		sum := flight.Summarize(j.result.Trials)
		st.Result = &JobResultView{
			Trials:     sum.Trials,
			Candidates: sum.AvgCandidates,
			Iterations: sum.AvgIterations,
			Seconds:    sum.AvgSeconds,
			Succeeded:  sum.Broken,
			Stopped:    j.result.Stopped,
			StopReason: string(j.result.StopReason),
		}
	}
	return st
}

// parsePolicy accepts both the JSON spellings and the LockInfo render
// ("per-cycle(EFF-Dyn)") so resume specs round-trip through manifests.
func parsePolicy(s string) (dynunlock.Policy, error) {
	switch t := strings.ToLower(strings.TrimSpace(s)); {
	case t == "" || strings.HasPrefix(t, "percycle") || strings.HasPrefix(t, "per-cycle"):
		return dynunlock.PerCycle, nil
	case strings.HasPrefix(t, "perpattern") || strings.HasPrefix(t, "per-pattern"):
		return dynunlock.PerPattern, nil
	case strings.HasPrefix(t, "static"):
		return dynunlock.Static, nil
	default:
		return dynunlock.PerCycle, fmt.Errorf("daemon: unknown policy %q", s)
	}
}

func parseMode(s string) (dynunlock.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "linear":
		return dynunlock.ModeLinear, nil
	case "direct":
		return dynunlock.ModeDirect, nil
	default:
		return dynunlock.ModeLinear, fmt.Errorf("daemon: unknown mode %q", s)
	}
}

// resolveSpec validates a submission. A resume spec is rehydrated from
// the source job's manifest so the resumed attack re-runs the exact
// recorded configuration; explicit fields alongside "resume" are
// rejected rather than silently ignored, and so is a resume name that is
// not a single path element inside the data directory.
func resolveSpec(dataDir string, spec JobSpec) (JobSpec, string, error) {
	if spec.Resume != "" {
		if spec.Benchmark != "" || spec.KeyBits != 0 {
			return spec, "", fmt.Errorf("daemon: a resume spec must not also set benchmark/keyBits")
		}
		src := spec.Resume
		// One local path element only, so joining it onto the data
		// directory cannot leave it.
		if !filepath.IsLocal(src) || strings.ContainsAny(src, `/\`) {
			return spec, "", fmt.Errorf("daemon: resume %q: want a job ID inside the data directory", src)
		}
		part, err := flight.OpenPartial(filepath.Join(dataDir, src))
		if err != nil {
			return spec, "", fmt.Errorf("daemon: resume %s: %w", src, err)
		}
		m := &part.Manifest
		out := JobSpec{
			Benchmark: m.Benchmark,
			KeyBits:   m.Lock.KeyBits,
			Policy:    m.Lock.Policy,
			Period:    m.Lock.Period,
			Scale:     m.Scale,
			Trials:    m.Trials,
			Mode:      m.Mode,
			Limit:     m.EnumerateLimit,
			MaxIters:  m.MaxIterations,
			Seed:      m.SeedBase,
			Resume:    src,
		}
		return out, src, nil
	}
	if spec.Benchmark == "" {
		return spec, "", fmt.Errorf("daemon: benchmark is required")
	}
	if spec.KeyBits <= 0 {
		return spec, "", fmt.Errorf("daemon: keyBits must be positive")
	}
	if _, err := parsePolicy(spec.Policy); err != nil {
		return spec, "", err
	}
	if _, err := parseMode(spec.Mode); err != nil {
		return spec, "", err
	}
	return spec, "", nil
}

// Config expands a resolved spec into the facade configuration.
func (s JobSpec) Config() dynunlock.ExperimentConfig {
	policy, _ := parsePolicy(s.Policy)
	mode, _ := parseMode(s.Mode)
	limit := s.Limit
	if limit <= 0 {
		limit = 256
	}
	return dynunlock.ExperimentConfig{
		Benchmark:      s.Benchmark,
		KeyBits:        s.KeyBits,
		Policy:         policy,
		Period:         s.Period,
		Scale:          s.Scale,
		Trials:         s.Trials,
		Mode:           mode,
		EnumerateLimit: limit,
		MaxIterations:  s.MaxIters,
		SeedBase:       s.Seed,
	}
}

// publishState emits one job lifecycle event on the job-tagged bus view,
// so /events?job=<id> carries the job's own lifecycle and the aggregate
// feed interleaves all of them.
func (d *Daemon) publishState(j *Job, state string, extra map[string]any) {
	data := map[string]any{
		"job":       j.ID,
		"state":     state,
		"benchmark": j.Spec.Benchmark,
		"key_bits":  j.Spec.KeyBits,
	}
	if j.ResumedFrom != "" {
		data["resumed_from"] = j.ResumedFrom
	}
	for k, v := range extra {
		data[k] = v
	}
	d.bus.WithJob(j.ID).Publish(stream.TypeJob, data)
}

// finishJob moves a job to a terminal state and updates the completion
// accounting.
func (d *Daemon) finishJob(j *Job, state, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	d.reg.Counter(MetricJobsCompleted, "status", state).Inc()
	extra := map[string]any{}
	if errMsg != "" {
		extra["error"] = errMsg
	}
	d.publishState(j, state, extra)
	fmt.Fprintf(d.log, "dynunlockd: %s %s%s\n", j.ID, state, suffixIf(errMsg))
}

func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// runJob executes one job on the calling worker goroutine: admission,
// per-job observability wiring (label-scoped metrics handle, job-tagged
// bus view, durable flight recorder), the attack itself, and
// terminal-state accounting.
func (d *Daemon) runJob(j *Job) {
	j.mu.Lock()
	if j.cancelled {
		j.mu.Unlock()
		d.finishJob(j, StateEvicted, "cancelled while queued")
		return
	}
	j.state = StateAdmitted
	j.started = time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	dir := filepath.Join(d.cfg.DataDir, j.ID)
	j.bundle = dir
	j.mu.Unlock()
	defer cancel()
	d.publishState(j, StateAdmitted, nil)
	d.reg.Gauge(MetricJobsInflight).Add(1)
	defer d.reg.Gauge(MetricJobsInflight).Add(-1)

	rec, err := flight.Create(dir)
	if err != nil {
		d.finishJob(j, StateFailed, err.Error())
		return
	}
	rec.Tool = "dynunlockd"
	// Durable transcripts are what make eviction and crash recoverable:
	// every oracle session and DIP lands on disk before the next solver
	// call, so a killed job leaves a resumable prefix.
	rec.SetDurable(true)

	cfg := j.Spec.Config()
	cfg.Recorder = rec
	cfg.Log = io.Discard
	cfg.Stream = d.bus.WithJob(j.ID)

	// Resume: chain the source bundle's transcript prefix in front of
	// each trial's live chip. The sequential engine re-asks the recorded
	// queries verbatim, so the replayed prefix rebuilds the interrupted
	// solver state and the live chip only answers what the dead job
	// never got to ask. The re-recording recorder sits outside the
	// resume chip, so the new bundle is complete on its own.
	var resumeChips []*flight.ResumeChip
	var resumeMu sync.Mutex
	if j.Spec.Resume != "" {
		part, err := flight.OpenPartial(filepath.Join(d.cfg.DataDir, j.Spec.Resume))
		if err != nil {
			d.finishJob(j, StateFailed, err.Error())
			return
		}
		byTrial := make(map[int][]*flight.SessionRecord)
		for i := range part.Sessions {
			s := &part.Sessions[i]
			byTrial[s.Trial] = append(byTrial[s.Trial], s)
		}
		cfg.ChipWrapper = func(trial int, chip core.Chip) core.Chip {
			recs := byTrial[trial]
			if len(recs) == 0 {
				return chip
			}
			rc := flight.NewResumeChip(flight.NewReplay(chip.Design(), recs), chip)
			resumeMu.Lock()
			resumeChips = append(resumeChips, rc)
			resumeMu.Unlock()
			return rc
		}
	}

	j.mu.Lock()
	interrupted := j.state != StateAdmitted // shutdown flipped it to draining
	if !interrupted {
		j.state = StateRunning
	}
	j.mu.Unlock()
	if !interrupted {
		d.publishState(j, StateRunning, map[string]any{"bundle": dir})
	}
	fmt.Fprintf(d.log, "dynunlockd: %s running (%s)\n", j.ID, dir)

	// The job's context carries no metrics registry: with a recorder and a
	// bus view attached, RunExperimentCtx samples a private one into the
	// job's delta events and its bundle's closing sample. It goes when the
	// job ends, so the daemon's /metrics does not grow with the job history.
	res, runErr := dynunlock.RunExperimentCtx(ctx, cfg)

	var replayed uint64
	resumeMu.Lock()
	for _, rc := range resumeChips {
		replayed += rc.ServedFromTranscript()
	}
	resumeMu.Unlock()
	if replayed > 0 {
		d.reg.Counter(MetricJobsReplayedSessions).Add(replayed)
	}
	j.mu.Lock()
	j.replayed = replayed
	j.result = res
	j.mu.Unlock()

	if err := rec.Close(); err != nil && runErr == nil {
		runErr = err
	}

	switch {
	case runErr != nil:
		d.finishJob(j, StateFailed, runErr.Error())
	case res != nil && res.Stopped && res.StopReason == core.StopCancelled:
		d.finishJob(j, StateEvicted, "cancelled mid-run; bundle is resumable")
	default:
		extra := ""
		if res != nil && !flight.Summarize(res.Trials).Broken {
			extra = "finished without recovering the seed"
		}
		d.finishJob(j, StateDone, extra)
	}
}
