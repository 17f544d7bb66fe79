package factory

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ldmo/internal/faultinject"
	"ldmo/internal/layout"
	"ldmo/internal/sampling"
)

// syncLog is a goroutine-safe log sink: workers, slots, and the supervisor
// all write to it concurrently.
type syncLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// testSpec builds a small, fast corpus spec: n generated layouts, a
// few-iteration ILT label, and drill-friendly heartbeat timings.
func testSpec(t *testing.T, n int) Spec {
	t.Helper()
	pool, err := layout.GenerateSet(11, n, layout.DefaultGenParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampling.DefaultConfig()
	cfg.ILT.MaxIters = 4
	cfg.MatchCount = 20
	return Spec{
		Layouts:      pool,
		Sampling:     cfg,
		HeartbeatMS:  25,
		StaleAfterMS: 300,
	}
}

// fastRestart returns drill-speed supervisor timings.
func fastRestart(cfg *Config) {
	cfg.RestartBase = 10 * time.Millisecond
	cfg.RestartMax = 100 * time.Millisecond
}

// readFileT reads a file or fails the test.
func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireManifestIdentical byte-compares the sealed manifests of two factory
// directories — the chaos drill's acceptance bar — plus every shard file.
func requireManifestIdentical(t *testing.T, gotDir, wantDir string, n int) {
	t.Helper()
	got := readFileT(t, gotDir+"/"+ManifestFile)
	want := readFileT(t, wantDir+"/"+ManifestFile)
	if string(got) != string(want) {
		t.Fatalf("manifest bytes differ between %s and %s", gotDir, wantDir)
	}
	for i := 0; i < n; i++ {
		gs := readFileT(t, sampling.ShardFile(gotDir, i))
		ws := readFileT(t, sampling.ShardFile(wantDir, i))
		if string(gs) != string(ws) {
			t.Fatalf("shard %d bytes differ between builds", i)
		}
	}
}

// TestFactoryMatchesSerial: an undisturbed in-process factory build seals the
// same shards and publishes the same manifest, byte for byte, as a serial
// sampling.BuildDatasetCtx run.
func TestFactoryMatchesSerial(t *testing.T) {
	spec := testSpec(t, 3)
	serialDir := t.TempDir()
	want, err := Serial(context.Background(), serialDir, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Kept == 0 || want.Poisoned != 0 {
		t.Fatalf("serial reference degenerate: %+v", want)
	}

	dir := t.TempDir()
	cfg := Config{Dir: dir, Spec: spec, Workers: 2}
	fastRestart(&cfg)
	rep, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sealed != 3 || len(rep.Poisoned) != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Kept != want.Kept || rep.Dropped != want.Dropped {
		t.Fatalf("dedupe summary diverged: report %+v, want %+v", rep, want)
	}
	requireManifestIdentical(t, dir, serialDir, 3)
}

// TestFactoryChaosConvergesToSerial is the in-process chaos drill: workers
// are repeatedly "SIGKILL'd" right after claiming a lease, and the build must
// still converge to a manifest byte-identical to the undisturbed serial
// reference, with every reclaim logged and zero poisoned shards.
func TestFactoryChaosConvergesToSerial(t *testing.T) {
	defer faultinject.Reset()
	spec := testSpec(t, 4)
	serialDir := t.TempDir()
	if _, err := Serial(context.Background(), serialDir, spec, nil); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	log := &syncLog{}
	cfg := Config{Dir: dir, Spec: spec, Workers: 2, Log: log}
	fastRestart(&cfg)

	// Arm the kill point before the build so the very first claim dies,
	// then keep re-arming it from the side for a while: each arm kills at
	// most one claim (FireAt disarms on fire), so progress between kills is
	// guaranteed and the drill always converges.
	faultinject.Set(faultinject.WorkerSigkill, "0")
	stopKiller := make(chan struct{})
	var killerWG sync.WaitGroup
	killerWG.Add(1)
	go func() {
		defer killerWG.Done()
		for i := 0; i < 4; i++ {
			select {
			case <-stopKiller:
				return
			case <-time.After(120 * time.Millisecond):
				faultinject.Set(faultinject.WorkerSigkill, "0")
			}
		}
	}()

	rep, err := Build(context.Background(), cfg)
	close(stopKiller)
	killerWG.Wait()
	faultinject.Reset()
	if err != nil {
		t.Fatalf("chaos build failed: %v\nlog:\n%s", err, log.String())
	}
	if rep.Sealed != 4 || len(rep.Poisoned) != 0 {
		t.Fatalf("chaos build incomplete: %+v\nlog:\n%s", rep, log.String())
	}
	if rep.Reclaims < 1 || rep.Restarts < 1 {
		t.Fatalf("chaos build saw no kills: %+v\nlog:\n%s", rep, log.String())
	}
	if !strings.Contains(log.String(), "reclaimed shard") {
		t.Fatalf("reclaims not logged:\n%s", log.String())
	}
	requireManifestIdentical(t, dir, serialDir, 4)
}

// TestFactoryHungWorkerReclaim: a worker that stops heartbeating without
// dying (lease-stale drill) must be killed by the supervisor and its shard
// reclaimed and completed — hung workers must never stall the build.
func TestFactoryHungWorkerReclaim(t *testing.T) {
	defer faultinject.Reset()
	spec := testSpec(t, 3)
	dir := t.TempDir()
	log := &syncLog{}
	cfg := Config{Dir: dir, Spec: spec, Workers: 1, Log: log}
	fastRestart(&cfg)

	faultinject.Set(faultinject.LeaseStale, "1")
	rep, err := Build(context.Background(), cfg)
	faultinject.Reset()
	if err != nil {
		t.Fatalf("build failed: %v\nlog:\n%s", err, log.String())
	}
	if rep.Sealed != 3 || len(rep.Poisoned) != 0 {
		t.Fatalf("build incomplete: %+v\nlog:\n%s", rep, log.String())
	}
	if rep.HungKills < 1 || rep.Reclaims < 1 || rep.Restarts < 1 {
		t.Fatalf("hung worker not reclaimed: %+v\nlog:\n%s", rep, log.String())
	}
	if !strings.Contains(log.String(), "killing hung worker") {
		t.Fatalf("hung-worker kill not logged:\n%s", log.String())
	}
}

// TestFactoryPoisonQuarantine: a layout whose labeler panics on every
// attempt kills its worker PoisonK times, is quarantined as poison with the
// panic and stack recorded, and the build still completes with the rest of
// the corpus sealed — never a crash loop, never a hang.
func TestFactoryPoisonQuarantine(t *testing.T) {
	defer faultinject.Reset()
	spec := testSpec(t, 3)
	spec.PoisonK = 2
	dir := t.TempDir()
	log := &syncLog{}
	cfg := Config{Dir: dir, Spec: spec, Workers: 2, Log: log}
	fastRestart(&cfg)

	faultinject.Set(faultinject.LabelPanicSticky, "1")
	rep, err := Build(context.Background(), cfg)
	faultinject.Reset()
	if err != nil {
		t.Fatalf("build failed: %v\nlog:\n%s", err, log.String())
	}
	if rep.Sealed != 2 || len(rep.Poisoned) != 1 || rep.Poisoned[0] != 1 {
		t.Fatalf("poison not quarantined: %+v\nlog:\n%s", rep, log.String())
	}
	p, err := ReadPoison(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Attempts != 2 || p.Layout != spec.Layouts[1].Name {
		t.Fatalf("poison record wrong: %+v", p)
	}
	if !strings.Contains(p.Reason, "sticky label panic") || p.Stack == "" {
		t.Fatalf("poison record missing panic evidence: %+v", p)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Poisoned != 1 || !m.Entries[1].Poison || m.Entries[1].Digest != "" {
		t.Fatalf("manifest poison entry wrong: %+v", m.Entries[1])
	}
}

// TestFactoryResume: a build cancelled mid-flight resumes from the leases
// and shards on disk and converges to the same manifest as the serial
// reference; an initialized directory is refused without Resume, a resume
// with a different spec is refused too, and resuming the now-complete
// directory leaves its manifest and shards byte for byte unchanged.
func TestFactoryResume(t *testing.T) {
	spec := testSpec(t, 3)
	serialDir := t.TempDir()
	if _, err := Serial(context.Background(), serialDir, spec, nil); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{Dir: dir, Spec: spec, Workers: 2}
	fastRestart(&cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, err := Build(ctx, cfg)
	cancel()
	if err == nil {
		// The whole corpus finished inside the timeout, so the first
		// resume below already runs over a complete directory.
		t.Log("build completed before the interrupt landed")
	}

	if _, err := Build(context.Background(), cfg); err == nil {
		t.Fatal("re-running an initialized factory dir without Resume must fail")
	}

	bad := cfg
	bad.Resume = true
	bad.Spec.PoisonK = 7
	if _, err := Build(context.Background(), bad); err == nil ||
		!strings.Contains(err.Error(), "differs") {
		t.Fatalf("resume with a different spec must be refused, got %v", err)
	}

	cfg.Resume = true
	rep, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if rep.Sealed != 3 || len(rep.Poisoned) != 0 {
		t.Fatalf("resume incomplete: %+v", rep)
	}
	requireManifestIdentical(t, dir, serialDir, 3)

	// Resuming a complete directory only verifies the shards and republishes
	// the manifest: the bytes must not move.
	rep, err = Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume over a complete directory failed: %v", err)
	}
	if rep.Sealed != 3 || len(rep.Poisoned) != 0 {
		t.Fatalf("resume over a complete directory: %+v", rep)
	}
	requireManifestIdentical(t, dir, serialDir, 3)
}

// TestParseShardName pins the strict coordination-file parse: only exact
// shard_NNNNN.{gob,lease,poison,crash,attempts} names are factory state.
func TestParseShardName(t *testing.T) {
	cases := []struct {
		name   string
		i      int
		suffix string
		ok     bool
	}{
		{"shard_00042.lease", 42, ".lease", true},
		{"shard_00000.gob", 0, ".gob", true},
		{"shard_00007.poison", 7, ".poison", true},
		{"shard_00007.crash", 7, ".crash", true},
		{"shard_00007.attempts", 7, ".attempts", true},
		{"shard_00042.gob.quarantined", 0, "", false},
		{"shard_00042.gob.tmp", 0, "", false},
		{"shard_42.gob", 0, "", false},
		{"shard_abcde.gob", 0, "", false},
		{"factory.gob", 0, "", false},
		{"manifest.gob", 0, "", false},
		{"notes.txt", 0, "", false},
	}
	for _, c := range cases {
		i, suffix, ok := parseShardName(c.name)
		if ok != c.ok || (ok && (i != c.i || suffix != c.suffix)) {
			t.Errorf("parseShardName(%q) = (%d, %q, %v), want (%d, %q, %v)",
				c.name, i, suffix, ok, c.i, c.suffix, c.ok)
		}
	}
}

// TestClaimLeaseExclusive: O_EXCL arbitration — exactly one of many
// concurrent claimants wins each shard.
func TestClaimLeaseExclusive(t *testing.T) {
	dir := t.TempDir()
	const claimants = 8
	wins := make(chan string, claimants)
	var wg sync.WaitGroup
	for c := 0; c < claimants; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			token := "w" + strings.Repeat("x", c+1)
			ok, err := claimLease(dir, 5, token)
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				wins <- token
			}
		}(c)
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("lease claimed by %d workers: %v", len(winners), winners)
	}
	l, err := readLease(leasePath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	if l.Token != winners[0] || l.Index != 5 {
		t.Fatalf("lease body %+v does not match winner %s", l, winners[0])
	}
}

// TestStripChaosFaults: restarted workers lose the one-shot kill points but
// keep sticky ones.
func TestStripChaosFaults(t *testing.T) {
	env := []string{
		"PATH=/bin",
		faultinject.EnvFaults + "=" + faultinject.WorkerSigkill + "=0," +
			faultinject.LabelPanicSticky + "=2," + faultinject.LeaseStale + "=1",
	}
	got := stripChaosFaults(env)
	want := faultinject.EnvFaults + "=" + faultinject.LabelPanicSticky + "=2"
	if got[1] != want {
		t.Fatalf("stripChaosFaults = %q, want %q", got[1], want)
	}
	if got[0] != "PATH=/bin" {
		t.Fatalf("unrelated env disturbed: %q", got[0])
	}
}
