package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/vtime"
)

func newTestTracer(capPerRank int) (*vtime.Sim, *Tracer) {
	sim := vtime.NewSim()
	return sim, New(sim, capPerRank)
}

func TestNilTracerAndRecorderAreNoOps(t *testing.T) {
	var tr *Tracer
	rec := tr.Rank(3)
	if rec != nil {
		t.Fatalf("nil tracer handed out non-nil recorder")
	}
	// Every helper must be callable on the nil recorder.
	rec.PhaseBegin("map")
	rec.PhaseEnd("map", 0)
	rec.SendBegin(1, 2, 3)
	rec.SendEnd(1, 2, 3, 7)
	rec.RecvBegin(-1, 2)
	rec.RecvEnd(0, 2, 9, 7)
	rec.CollBeginN("barrier", 0, 0)
	rec.CollEndN("barrier", 0, 0)
	rec.CkptCommit("map/t0", 10, 1)
	rec.CopierBegin("map/t0", 10)
	rec.CopierEnd("map/t0", 10)
	rec.CopierDrain("map/t0", 10)
	rec.CkptLoad("map/t0", 10, 1)
	rec.FailureInject(1)
	rec.FailureKill(1)
	rec.FailureDetect([]int{1})
	rec.Revoke("initiate")
	rec.ShrinkBegin(4)
	rec.ShrinkEnd(3)
	rec.AgreeBegin(1)
	rec.AgreeEnd(1)
	rec.LoadBalance("parts", 2, 3)
	rec.ShrinkAgreeBegin()
	rec.LBFit("trace", 0.002, 1.5e-6, 1e-4, 7)
	rec.SlowRank(1, 6.0)
	rec.TaskCommit("map", 0, 5)
	rec.TaskSeconds("map", time.Millisecond)
	rec.RecoveryAttempt()
	rec.RecoveryBegin()
	rec.RecoveryEnd(0)
	rec.BindMPI()
	rec.BindRunner(&Tally{})
	rec.BindReplication()
	rec.AddCounter("iters", 1)
	rec.MirrorBundle(64)
	rec.DupDrop()
	rec.InjectOutage()
	rec.SetTask(1)
	rec.EnterDrain()
	rec.ExitDrain()

	if got := tr.Events(); got != nil {
		t.Errorf("nil tracer Events() = %v, want nil", got)
	}
	if got := tr.Ranks(); got != nil {
		t.Errorf("nil tracer Ranks() = %v, want nil", got)
	}
	if got := tr.Dropped(0); got != 0 {
		t.Errorf("nil tracer Dropped() = %d, want 0", got)
	}
}

func TestRingRetainsNewestAndCountsDrops(t *testing.T) {
	_, tr := newTestTracer(4)
	rec := tr.Rank(0)
	for i := 0; i < 10; i++ {
		rec.TaskCommit("map", i, 0)
	}
	evs := tr.EventsFor(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The newest 4 (task ids 6..9) survive, in order.
	for i, ev := range evs {
		if want := int64(6 + i); ev.A != want {
			t.Errorf("event %d: task id %d, want %d", i, ev.A, want)
		}
	}
	if got := tr.Dropped(0); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
}

func TestEventsMergeInCausalOrder(t *testing.T) {
	sim, tr := newTestTracer(0)
	// Interleave emissions across ranks; Seq must order the merged stream.
	tr.Rank(2).PhaseBegin("map")
	tr.Rank(0).PhaseBegin("map")
	tr.Rank(2).PhaseEnd("map", 0)
	tr.Rank(1).PhaseBegin("map")
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("events out of Seq order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	wantRanks := []int{2, 0, 2, 1}
	for i, ev := range evs {
		if ev.Rank != wantRanks[i] {
			t.Errorf("event %d rank = %d, want %d", i, ev.Rank, wantRanks[i])
		}
	}
	_ = sim
}

func TestEventVirtualTimestamps(t *testing.T) {
	sim, tr := newTestTracer(0)
	rec := tr.Rank(0)
	rec.PhaseBegin("map")
	sim.Spawn("p", func(p *vtime.Proc) {
		p.Sleep(5 * time.Millisecond)
		rec.PhaseEnd("map", 0)
	})
	sim.Run()
	evs := tr.EventsFor(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].VT != 0 || evs[1].VT != 5*time.Millisecond {
		t.Errorf("timestamps = %v, %v; want 0, 5ms", evs[0].VT, evs[1].VT)
	}
}

// TestRegistryOnlyFactsAddNoTrack: a world-track fact that reaches only the
// registry (an outage window) must not list the world track, or the Chrome
// sink would render an empty "world" process.
func TestRegistryOnlyFactsAddNoTrack(t *testing.T) {
	sim, tr := newTestTracer(0)
	reg := metrics.New(sim)
	w := tr.Global()
	w.Attach(reg, nil)
	w.InjectOutage()
	if got := tr.Ranks(); len(got) != 0 {
		t.Fatalf("Ranks() = %v after a registry-only fact, want none", got)
	}
	if v, ok := reg.Snapshot().Series("ftmr_failures_injected", "outage"); !ok || v != 1 {
		t.Fatalf("outage counter = %v (present %v), want 1", v, ok)
	}
	w.FailureInject(2)
	if got := tr.Ranks(); len(got) != 1 || got[0] != GlobalRank {
		t.Fatalf("Ranks() = %v after an event, want [%d]", got, GlobalRank)
	}
}

func TestWriteJSONLParses(t *testing.T) {
	_, tr := newTestTracer(0)
	tr.Rank(0).PhaseBegin("map")
	tr.Rank(0).SendEnd(1, 7, 64, 42)
	tr.Global().FailureInject(1)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	var kinds []string
	sawFlow := false
	sc := bufio.NewScanner(&buf)
	line := 0
	for sc.Scan() {
		line++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if line == 1 {
			// The v2 header precedes the events (DESIGN.md §"Trace wire
			// format v2").
			if obj["format"] != "ftmr-trace" || obj["schema"] != float64(SchemaVersion) {
				t.Fatalf("header line = %v, want format ftmr-trace schema %d", obj, SchemaVersion)
			}
			continue
		}
		kinds = append(kinds, obj["kind"].(string))
		if obj["kind"] == "send.end" {
			if obj["flow"] != float64(42) {
				t.Errorf("send.end flow = %v, want 42", obj["flow"])
			}
			sawFlow = true
		}
	}
	want := []string{"phase.begin", "send.end", "failure.inject"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	if !sawFlow {
		t.Error("send.end line missing flow id")
	}
}

func TestWriteChromeShape(t *testing.T) {
	_, tr := newTestTracer(0)
	rec := tr.Rank(0)
	rec.PhaseBegin("map")
	rec.CollBeginN("barrier", 0, 0)
	rec.CollEndN("barrier", 0, 0)
	rec.PhaseEnd("map", 0)
	rec.RecoveryBegin()
	rec.RecoveryEnd(0)
	rec.CopierDrain("map/t0", 128)
	tr.Global().FailureInject(3)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}

	var phs []string
	sawCopierTid, sawWorldPid := false, false
	for _, ev := range out.TraceEvents {
		phs = append(phs, ev["ph"].(string))
		if ev["tid"] == float64(chromeTidCopier) && ev["ph"] == "i" {
			sawCopierTid = true
		}
		if ev["pid"] == float64(chromeWorldPID) && ev["ph"] == "i" {
			sawWorldPid = true
		}
	}
	joined := strings.Join(phs, "")
	for _, want := range []string{"M", "B", "E", "b", "e", "i"} {
		if !strings.Contains(joined, want) {
			t.Errorf("chrome output missing %q events (got %s)", want, joined)
		}
	}
	if !sawCopierTid {
		t.Error("copier drain not on the copier thread track")
	}
	if !sawWorldPid {
		t.Error("failure injection not on the world track")
	}
}

func TestSummarizeBasics(t *testing.T) {
	sim, tr := newTestTracer(0)
	rec := tr.Rank(0)
	sim.Spawn("p", func(p *vtime.Proc) {
		rec.PhaseBegin("map")
		p.Sleep(10 * time.Millisecond)
		rec.PhaseEnd("map", 0)
		rec.RecoveryBegin()
		p.Sleep(3 * time.Millisecond)
		rec.RecoveryEnd(0)
		// Nested collectives: only the top-level span counts.
		rec.CollBeginN("allreduce", 0, 0)
		rec.CollBeginN("allgather", 0, 0)
		p.Sleep(2 * time.Millisecond)
		rec.CollEndN("allgather", 0, 0)
		p.Sleep(1 * time.Millisecond)
		rec.CollEndN("allreduce", 0, 0)
		rec.SendEnd(1, 0, 100, 1)
		rec.RecvEnd(1, 0, 200, 2)
		rec.CkptCommit("map/t0", 50, 2)
		rec.CopierDrain("map/t0", 50)
		rec.CkptLoad("map/t0", 50, 2)
		rec.TaskCommit("map", 0, 10)
		// Unmatched begin: contributes nothing.
		rec.PhaseBegin("reduce")
	})
	sim.Run()

	s := Summarize(tr.Events())
	rs := s.Rank(0)
	if rs.Phase["map"] != 10*time.Millisecond {
		t.Errorf("map time = %v, want 10ms", rs.Phase["map"])
	}
	if rs.Phase["reduce"] != 0 {
		t.Errorf("unmatched begin contributed %v", rs.Phase["reduce"])
	}
	if rs.Recoveries != 1 || rs.RecoveryTime != 3*time.Millisecond {
		t.Errorf("recovery = %d/%v, want 1/3ms", rs.Recoveries, rs.RecoveryTime)
	}
	if rs.CollTime != 3*time.Millisecond {
		t.Errorf("coll time = %v, want 3ms (top-level span only)", rs.CollTime)
	}
	if rs.Sends != 1 || rs.SendBytes != 100 || rs.Recvs != 1 || rs.RecvBytes != 200 {
		t.Errorf("p2p = %d/%d %d/%d", rs.Sends, rs.SendBytes, rs.Recvs, rs.RecvBytes)
	}
	if rs.CkptBytes != 50 || rs.CkptFrames != 2 || rs.CopierBytes != 50 ||
		rs.RecoveredBytes != 50 || rs.RecoveredFrames != 2 {
		t.Errorf("ckpt aggregates wrong: %+v", rs)
	}
	if rs.TaskCommits != 1 {
		t.Errorf("task commits = %d", rs.TaskCommits)
	}
}

// TestTracerOverheadGate is the regression gate behind `make bench-overhead`
// (part of `make check`): it re-measures the two overhead benchmarks with
// testing.Benchmark and fails the build if the disabled (plane-less) path
// ever allocates or stops being decisively cheaper than the live path — a
// disabled call must stay at its tally add plus one branch per plane, so
// anything within 2x of a real ring write means someone put work ahead of
// the plane checks. Gated by
// FTMR_OVERHEAD_GATE so wall-clock-sensitive timing never flakes the plain
// `go test ./...` tier-1 run.
func TestTracerOverheadGate(t *testing.T) {
	if os.Getenv("FTMR_OVERHEAD_GATE") == "" {
		t.Skip("set FTMR_OVERHEAD_GATE=1 (make bench-overhead) to run the timing gate")
	}
	disabled := testing.Benchmark(BenchmarkTracerOverheadDisabled)
	enabled := testing.Benchmark(BenchmarkTracerOverheadEnabled)
	t.Logf("disabled: %s\nenabled:  %s", disabled.String(), enabled.String())
	if a := disabled.AllocsPerOp(); a != 0 {
		t.Fatalf("disabled tracer path allocates (%d allocs/op); must be alloc-free", a)
	}
	if a := enabled.AllocsPerOp(); a != 0 {
		t.Fatalf("enabled tracer path allocates (%d allocs/op) in ring steady state", a)
	}
	dis, en := disabled.NsPerOp(), enabled.NsPerOp()
	if dis*2 > en {
		t.Fatalf("disabled path too slow: %dns/op vs %dns/op enabled — the nil check is no longer the only cost", dis, en)
	}
}

// overheadMix is the call mix both overhead benchmarks time: p2p and
// stamped collectives, the critical-path attributions (recovery stages,
// checkpoint stalls), the recovery-source attribution, the replication
// model's events and counters (mirror, sync, failover, dup drop), recovery
// attempts, the task commit and latency histogram, the tallied facts (phase
// and recovery time, checkpoint commits and loads, user counters) and the
// probe annotations (phase, task, drain) — so every fact a Recorder folds
// stays inside the same gate.
func overheadMix(rec *Recorder, i int) {
	rec.PhaseBegin("map")
	rec.PhaseEnd("map", time.Millisecond)
	rec.RecoveryBegin()
	rec.RecoveryEnd(time.Millisecond)
	rec.CkptCommit("map/t0", 64, 1)
	rec.CkptLoad("map/t0", 64, 1)
	rec.AddCounter("iters", 1)
	rec.SetTask(i)
	rec.SendBegin(1, 2, 64)
	rec.SendEnd(1, 2, 64, 1)
	rec.RecvBegin(1, 2)
	rec.RecvEnd(1, 2, 64, 1)
	rec.RecoveryStage("skip", time.Millisecond)
	rec.CkptStall("write", time.Millisecond)
	rec.CollBeginN("barrier", 1, i)
	rec.CollEndN("barrier", 1, i)
	rec.RecoverySource("pfs", 64, 1)
	rec.ShadowMirror(1, 2, 64, 1)
	rec.ShadowSync("push", 1, 2, 64)
	rec.Failover(1, 2)
	rec.MirrorBundle(64)
	rec.DupDrop()
	rec.RecoveryAttempt()
	rec.TaskCommit("map", i, 5)
	rec.TaskSeconds("map", time.Millisecond)
	rec.EnterDrain()
	rec.ExitDrain()
}

// BenchmarkTracerOverheadDisabled measures the disabled hot path: the
// plane-less Recorder the cluster hands out when every plane is off, bound
// to a runner's tally. Compare with BenchmarkTracerOverheadEnabled.
func BenchmarkTracerOverheadDisabled(b *testing.B) {
	rec := NewRecorder(0)
	rec.BindRunner(newBenchTally())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		overheadMix(rec, i)
	}
}

// BenchmarkTracerOverheadEnabled measures the same call mix on a Recorder
// with every plane attached: a full (steady-state overwriting) ring, bound
// registry series of every scope, and an introspection probe.
func BenchmarkTracerOverheadEnabled(b *testing.B) {
	sim, tr := newTestTracer(1 << 10)
	rec := tr.Rank(0)
	rec.Attach(metrics.New(sim), introspect.New(sim, time.Millisecond).RankProbe(0))
	rec.BindMPI()
	rec.BindRunner(newBenchTally())
	rec.BindReplication()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overheadMix(rec, i)
	}
}

func newBenchTally() *Tally {
	return &Tally{PhaseTime: map[Phase]time.Duration{}, Counters: map[string]int64{}}
}

// Each tallied fact lands in the bound tally once, with or without planes,
// and an unbound Recorder tallies nothing.
func TestRecorderTalliesFacts(t *testing.T) {
	NewRecorder(0).CkptCommit("map/t0", 10, 1) // no tally bound: no-op
	for _, planes := range []bool{false, true} {
		rec := NewRecorder(0)
		if planes {
			sim := vtime.NewSim()
			rec.Attach(metrics.New(sim), introspect.New(sim, time.Millisecond).RankProbe(0))
		}
		tl := newBenchTally()
		rec.BindRunner(tl)
		rec.PhaseEnd(PhaseMap, 2*time.Millisecond)
		rec.RecoveryEnd(3 * time.Millisecond)
		rec.RecoveryStage("init", time.Millisecond)
		rec.RecoveryStage("load", 2*time.Millisecond)
		rec.RecoveryStage("skip", 3*time.Millisecond)
		rec.RecoveryStage("reprocess", 4*time.Millisecond)
		rec.CkptCommit("map/t0", 100, 2)
		rec.CkptLoad("map/t0", 50, 1)
		rec.CkptStall("write", time.Millisecond)
		rec.CkptStall("drain", 2*time.Millisecond)
		rec.CkptCorrupt("map/t0", 5, 9)
		rec.AddCounter("iters", 4)
		want := Tally{
			IOWait:          3 * time.Millisecond,
			PhaseTime:       map[Phase]time.Duration{PhaseMap: 2 * time.Millisecond, PhaseRecovery: 3 * time.Millisecond},
			Recovery:        RecoveryBreakdown{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond},
			Counters:        map[string]int64{"ckpt_corrupt": 1, "iters": 4},
			CkptFrames:      2,
			CkptBytes:       100,
			RecoveredFrames: 1,
			RecoveredBytes:  50,
		}
		if !reflect.DeepEqual(*tl, want) {
			t.Errorf("planes=%v: tally %+v, want %+v", planes, *tl, want)
		}
	}
}
