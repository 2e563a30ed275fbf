// Package faultinject provides a seeded, deterministic fault plan for
// exercising the pipeline supervisor. OWL's dynamic stages deliberately
// run programs that crash, hang, and diverge — the paper treats a crash
// as evidence, not an error — so the surrounding pipeline must survive
// worker panics, runaway executions, and stage stalls. This package makes
// those failure modes reproducible: a Plan is a list of rules keyed by
// (stage, run index) that fire panics, spurious errors, artificial
// delays, or step-budget exhaustion at registered points in owl, eval,
// and the interpreter drivers.
//
// Determinism contract: whether a rule fires at a point depends only on
// the plan (rules, seed), the stage name, the run index, and how many
// times that exact point has already been hit (retries re-hit a point).
// Worker count and scheduling never influence an injection decision, so
// a faulted pipeline remains byte-identical across -workers values —
// the same discipline the rest of the repo holds the happy path to.
//
// All methods are nil-safe: a nil *Plan injects nothing, so call sites
// thread an optional plan without guards.
package faultinject

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Kind names one failure mode a rule can inject.
type Kind string

// The injectable failure modes. KindPanic panics the worker goroutine
// (the supervisor quarantines it); KindError returns a spurious error
// from the point (exercises retry-with-backoff); KindDelay sleeps,
// context-aware, for DelayMS (trips per-stage deadlines); KindMaxSteps
// does not fire at Point — it overrides the interpreter step budget via
// StepBudget, forcing a MaxStepsHit truncation.
const (
	KindPanic    Kind = "panic"
	KindError    Kind = "error"
	KindDelay    Kind = "delay"
	KindMaxSteps Kind = "max-steps"
)

// Disk-fault kinds. These never fire at Point or StepBudget — storage
// layers (internal/serve/persist) consult them through Disk at each
// write/fsync call, keyed by operation name (the rule's Stage) and the
// per-target operation sequence number (the rule's Run). KindShortWrite
// writes a prefix of the buffer and then reports an error (ENOSPC
// mid-write); KindFsyncError skips the fsync and reports an error;
// KindTornWrite silently writes only a prefix (the page-cache tail a
// kill -9 loses); KindBitFlip silently flips one bit of the buffer
// before it lands (latent media corruption a checksum must catch).
const (
	KindShortWrite Kind = "short-write"
	KindFsyncError Kind = "fsync-error"
	KindTornWrite  Kind = "torn-write"
	KindBitFlip    Kind = "bit-flip"
)

// isDisk reports whether the kind is a disk fault (fired via Disk, not
// Point).
func isDisk(k Kind) bool {
	switch k {
	case KindShortWrite, KindFsyncError, KindTornWrite, KindBitFlip:
		return true
	}
	return false
}

// Network-fault kinds. Like disk faults these never fire at Point —
// the replica state-exchange client (internal/serve/replicate) consults
// them through Net at each request, keyed by operation name (the rule's
// Stage, e.g. "replicate.get" or "replicate.put") and the per-(peer,
// operation) sequence number (the rule's Run). KindNetDown fails the
// request without touching the wire (connection refused); KindNetSlow
// stalls the request for DelayMS before letting it proceed (a peer that
// answers slower than the client's timeout); KindNetTruncate cuts the
// response body in half after a successful status (a proxy or peer
// dying mid-transfer); KindNetFlip flips one bit of the response body
// (corruption only the blob's CRC framing catches).
const (
	KindNetDown     Kind = "net-down"
	KindNetSlow     Kind = "net-slow"
	KindNetTruncate Kind = "net-truncate"
	KindNetFlip     Kind = "net-flip"
)

// isNet reports whether the kind is a network fault (fired via Net, not
// Point).
func isNet(k Kind) bool {
	switch k {
	case KindNetDown, KindNetSlow, KindNetTruncate, KindNetFlip:
		return true
	}
	return false
}

// Rule is one fault-injection directive.
type Rule struct {
	// Stage is the exact stage name the rule targets (e.g. "owl.detect",
	// "owl.vulnverify", "eval.workloads").
	Stage string `json:"stage"`
	// Run is the run index within the stage the rule targets; -1 targets
	// every run of the stage.
	Run int `json:"run"`
	// Kind selects the failure mode.
	Kind Kind `json:"kind"`
	// Times bounds how many times the rule fires (0 = unlimited). A
	// transient failure is a rule with Times set: the first attempt
	// faults, the supervisor's retry succeeds.
	Times int `json:"times,omitempty"`
	// Prob, when in (0,1), fires the rule only at points whose seeded
	// hash of (stage, run) falls below it — a deterministic coin flip
	// keyed by the plan seed, never by wall clock or scheduling.
	Prob float64 `json:"prob,omitempty"`
	// DelayMS is the sleep for KindDelay and KindNetSlow, in
	// milliseconds.
	DelayMS int `json:"delay_ms,omitempty"`
	// MaxSteps is the step-budget override for KindMaxSteps.
	MaxSteps int `json:"max_steps,omitempty"`
	// Bit is the bit offset KindBitFlip/KindNetFlip flips, taken modulo
	// the buffer's bit length (so any value is valid for any write).
	Bit int `json:"bit,omitempty"`
	// Msg labels the injected panic/error (default "injected <kind>").
	Msg string `json:"msg,omitempty"`
}

// Plan is a deterministic fault plan: a seed plus rules. Construct via
// Load/Parse or literal; the zero value injects nothing.
type Plan struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`

	mu    sync.Mutex
	fired map[string]int // per-rule fire counts, keyed by rule index + point
}

// Load reads a plan from a JSON file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %w", err)
	}
	return Parse(data)
}

// Parse decodes a plan from JSON bytes.
func Parse(data []byte) (*Plan, error) {
	p := &Plan{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("faultinject: parse plan: %w", err)
	}
	for i, r := range p.Rules {
		switch r.Kind {
		case KindPanic, KindError, KindDelay, KindMaxSteps,
			KindShortWrite, KindFsyncError, KindTornWrite, KindBitFlip,
			KindNetDown, KindNetSlow, KindNetTruncate, KindNetFlip:
		default:
			return nil, fmt.Errorf("faultinject: rule %d: unknown kind %q", i, r.Kind)
		}
		if (r.Kind == KindDelay || r.Kind == KindNetSlow) && r.DelayMS <= 0 {
			return nil, fmt.Errorf("faultinject: rule %d: %s needs delay_ms > 0", i, r.Kind)
		}
		if r.Kind == KindMaxSteps && r.MaxSteps <= 0 {
			return nil, fmt.Errorf("faultinject: rule %d: max-steps needs max_steps > 0", i)
		}
	}
	return p, nil
}

// Panic is the value an injected panic carries, so supervisor recover
// sites can label the quarantine record deterministically.
type Panic struct {
	Stage string
	Run   int
	Msg   string
}

func (p *Panic) String() string {
	return fmt.Sprintf("injected panic at %s run %d: %s", p.Stage, p.Run, p.Msg)
}

// Err is the error type injected spurious failures return.
type Err struct {
	Stage string
	Run   int
	Msg   string
}

func (e *Err) Error() string {
	return fmt.Sprintf("injected error at %s run %d: %s", e.Stage, e.Run, e.Msg)
}

// matches reports whether the rule targets the point.
func (r *Rule) matches(stage string, run int) bool {
	return r.Stage == stage && (r.Run < 0 || r.Run == run)
}

// take consumes one firing of rule ri at the point, honoring Times and
// Prob; it returns false when the rule is exhausted or the seeded coin
// says no.
func (p *Plan) take(ri int, r *Rule, stage string, run int) bool {
	if r.Prob > 0 && r.Prob < 1 {
		if pointHash(p.Seed, uint64(ri), stage, run) >= r.Prob {
			return false
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fired == nil {
		p.fired = make(map[string]int)
	}
	key := fmt.Sprintf("%d|%s|%d", ri, stage, run)
	if r.Times > 0 && p.fired[key] >= r.Times {
		return false
	}
	p.fired[key]++
	return true
}

// Point is the injection hook workers call at the top of each run. It
// returns nil when no rule fires; returns an *Err for KindError; sleeps
// (context-aware) for KindDelay, returning ctx.Err() if the wait is cut
// short; and panics with a *Panic for KindPanic. KindMaxSteps rules do
// not fire here — see StepBudget.
func (p *Plan) Point(ctx context.Context, stage string, run int) error {
	if p == nil {
		return nil
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Kind == KindMaxSteps || isDisk(r.Kind) || isNet(r.Kind) || !r.matches(stage, run) {
			continue
		}
		if !p.take(i, r, stage, run) {
			continue
		}
		msg := r.Msg
		if msg == "" {
			msg = "injected " + string(r.Kind)
		}
		switch r.Kind {
		case KindPanic:
			panic(&Panic{Stage: stage, Run: run, Msg: msg})
		case KindError:
			return &Err{Stage: stage, Run: run, Msg: msg}
		case KindDelay:
			t := time.NewTimer(time.Duration(r.DelayMS) * time.Millisecond)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// StepBudget returns the interpreter step budget for the point: the
// first matching KindMaxSteps rule's override, or def.
func (p *Plan) StepBudget(stage string, run int, def int) int {
	if p == nil {
		return def
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Kind != KindMaxSteps || !r.matches(stage, run) {
			continue
		}
		if !p.take(i, r, stage, run) {
			continue
		}
		return r.MaxSteps
	}
	return def
}

// DiskFault describes one disk fault Disk decided to inject.
type DiskFault struct {
	Kind Kind
	Bit  int
	Msg  string
}

func (d *DiskFault) Error() string {
	return fmt.Sprintf("injected %s: %s", d.Kind, d.Msg)
}

// Disk is the storage-layer injection hook: op names the I/O point (the
// rule's Stage, e.g. "persist.checkpoint.write" or "persist.dir.fsync")
// and seq is the per-target sequence number of that operation (the
// rule's Run; -1 in a rule matches every occurrence). It returns the
// first matching disk rule's fault, or nil. The same determinism
// contract as Point holds: whether a fault fires depends only on the
// plan, the op, the sequence number, and prior hits of that exact
// point — never on scheduling or wall clock.
func (p *Plan) Disk(op string, seq int) *DiskFault {
	if p == nil {
		return nil
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if !isDisk(r.Kind) || !r.matches(op, seq) {
			continue
		}
		if !p.take(i, r, op, seq) {
			continue
		}
		msg := r.Msg
		if msg == "" {
			msg = "injected " + string(r.Kind)
		}
		return &DiskFault{Kind: r.Kind, Bit: r.Bit, Msg: msg}
	}
	return nil
}

// NetFault describes one network fault Net decided to inject.
type NetFault struct {
	Kind    Kind
	Bit     int
	DelayMS int
	Msg     string
}

func (n *NetFault) Error() string {
	return fmt.Sprintf("injected %s: %s", n.Kind, n.Msg)
}

// Net is the replica-client injection hook: op names the request point
// (the rule's Stage, e.g. "replicate.get") and seq is the per-(peer,
// operation) sequence number of that request (the rule's Run; -1 in a
// rule matches every occurrence). It returns the first matching network
// rule's fault, or nil. The same determinism contract as Point and Disk
// holds: whether a fault fires depends only on the plan, the op, the
// sequence number, and prior hits of that exact point — never on
// scheduling or wall clock.
func (p *Plan) Net(op string, seq int) *NetFault {
	if p == nil {
		return nil
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if !isNet(r.Kind) || !r.matches(op, seq) {
			continue
		}
		if !p.take(i, r, op, seq) {
			continue
		}
		msg := r.Msg
		if msg == "" {
			msg = "injected " + string(r.Kind)
		}
		return &NetFault{Kind: r.Kind, Bit: r.Bit, DelayMS: r.DelayMS, Msg: msg}
	}
	return nil
}

// pointHash maps (seed, rule, stage, run) to [0,1) with splitmix64 over
// an FNV-mixed key — the deterministic coin behind Rule.Prob.
func pointHash(seed, rule uint64, stage string, run int) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stage); i++ {
		h = (h ^ uint64(stage[i])) * 1099511628211
	}
	h ^= rule * 0x9e3779b97f4a7c15
	h ^= uint64(run) << 1
	x := seed + h + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
