package service

import (
	"strings"
	"testing"

	"vbench/internal/codec"
	"vbench/internal/codec/profiles"
	"vbench/internal/telemetry"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Uploads = 12
	cfg.Workers = 2
	cfg.PopularShare = 0.3
	return cfg
}

// cheapConfig trims the encode work for tests that only exercise the
// scheduling and accounting around the encodes.
func cheapConfig() Config {
	cfg := smallConfig()
	cfg.Uploads = 8
	cfg.DurationSeconds = 0.2
	return cfg
}

func TestRunBasicInvariants(t *testing.T) {
	stats, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Uploads != 12 {
		t.Errorf("uploads = %d", stats.Uploads)
	}
	if stats.UploadTranscodes != stats.Uploads || stats.VODTranscodes != stats.Uploads {
		t.Error("every upload needs a universal and a VOD transcode")
	}
	if stats.PopularRetranscodes > stats.Uploads {
		t.Error("more popular re-transcodes than uploads")
	}
	if stats.StorageBytes <= 0 || stats.EgressBytes <= 0 {
		t.Error("zero storage/egress")
	}
	if stats.TotalComputeSeconds() <= 0 {
		t.Error("zero compute")
	}
	if stats.FleetUtilization < 0 || stats.FleetUtilization > 1 {
		t.Errorf("utilization %v out of range", stats.FleetUtilization)
	}
	if stats.MeanServedPSNR < 25 {
		t.Errorf("served quality %v implausible", stats.MeanServedPSNR)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(cheapConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cheapConfig())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestPopularRetranscodesSaveEgress(t *testing.T) {
	cfg := smallConfig()
	cfg.PopularShare = 1.0 // every video goes hot
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PopularRetranscodes == 0 {
		t.Fatal("no popular re-transcodes despite 100% popularity")
	}
	if stats.EgressSavedBytes <= 0 {
		t.Error("popular re-transcodes saved no egress")
	}
	// The saved/served accounting must be consistent: serving the VOD
	// copies to the same traffic would have cost exactly
	// EgressBytes + EgressSavedBytes.
	cfg2 := cfg
	cfg2.PopularEncoder = profiles.X264(codec.PresetUltraFast) // cannot beat the VOD copy
	weak, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if weak.PopularRetranscodes != 0 {
		t.Errorf("ultrafast popular encoder produced %d valid re-transcodes", weak.PopularRetranscodes)
	}
	if stats.EgressBytes >= weak.EgressBytes {
		t.Errorf("good popular encoder egress (%d) not below weak encoder egress (%d)",
			stats.EgressBytes, weak.EgressBytes)
	}
	if stats.EgressBytes+stats.EgressSavedBytes != weak.EgressBytes {
		t.Errorf("egress accounting inconsistent: %d + %d != %d",
			stats.EgressBytes, stats.EgressSavedBytes, weak.EgressBytes)
	}
}

func TestMoreWorkersReduceQueueWait(t *testing.T) {
	cfg := cheapConfig()
	cfg.Uploads = 20
	cfg.MeanInterarrivalSeconds = 0.02 // saturate the fleet
	cfg.Workers = 1
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanQueueWaitSeconds > slow.MeanQueueWaitSeconds {
		t.Errorf("8 workers waited longer (%.3fs) than 1 worker (%.3fs)",
			fast.MeanQueueWaitSeconds, slow.MeanQueueWaitSeconds)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Workers = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero workers accepted")
	}
	bad = DefaultConfig()
	bad.Uploads = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero uploads accepted")
	}
	bad = DefaultConfig()
	bad.MeanInterarrivalSeconds = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero interarrival accepted")
	}
}

func TestDefaultEncoderLadder(t *testing.T) {
	// Pin the documented reference ladder: veryfast upload, medium
	// two-pass VOD, and — the part that once silently shipped as
	// x265-slow — an x265-class VERYSLOW popular re-transcode.
	cfg := DefaultConfig()
	if err := cfg.withDefaults(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"upload":  profiles.X264(codec.PresetVeryFast).Tools.Name,
		"vod":     profiles.X264(codec.PresetMedium).Tools.Name,
		"popular": profiles.X265(codec.PresetVerySlow).Tools.Name,
	}
	got := map[string]string{
		"upload":  cfg.UploadEncoder.Tools.Name,
		"vod":     cfg.VODEncoder.Tools.Name,
		"popular": cfg.PopularEncoder.Tools.Name,
	}
	for pass, name := range want {
		if got[pass] != name {
			t.Errorf("default %s encoder = %s, want %s", pass, got[pass], name)
		}
	}
}

func TestRunMetricsIsolation(t *testing.T) {
	// Two runs with private registries must not contaminate each other
	// or the process default.
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	defBefore := telemetry.Default.Counter("service.transcodes").Value()

	cfgA := cheapConfig()
	cfgA.Metrics = regA
	statsA, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cheapConfig()
	cfgB.Uploads = 4
	cfgB.Metrics = regB
	statsB, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}

	jobsA := int64(statsA.UploadTranscodes + statsA.VODTranscodes + statsA.PopularRetranscodes)
	jobsB := int64(statsB.UploadTranscodes + statsB.VODTranscodes + statsB.PopularRetranscodes)
	if got := regA.Counter("service.transcodes").Value(); got != jobsA {
		t.Errorf("registry A counted %d transcodes, want %d", got, jobsA)
	}
	if got := regB.Counter("service.transcodes").Value(); got != jobsB {
		t.Errorf("registry B counted %d transcodes, want %d", got, jobsB)
	}
	if got := telemetry.Default.Counter("service.transcodes").Value(); got != defBefore {
		t.Errorf("per-run registries leaked %d observations into telemetry.Default", got-defBefore)
	}
	// The fleet twin reports into the same per-run registry.
	if got := regA.Counter("fleet.jobs_submitted").Value(); got != jobsA {
		t.Errorf("registry A fleet.jobs_submitted = %d, want %d", got, jobsA)
	}
}

func TestRunTransitionLogDeterministic(t *testing.T) {
	cfg := cheapConfig()
	cfg.RecordLog = true
	cfg.Metrics = telemetry.NewRegistry()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = telemetry.NewRegistry()
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TransitionLog == "" {
		t.Fatal("RecordLog produced no transition log")
	}
	if a.TransitionLog != b.TransitionLog {
		t.Error("same-seed runs produced different transition logs")
	}
	for _, tag := range []string{"reason=submit", "reason=lease", "reason=complete"} {
		if !strings.Contains(a.TransitionLog, tag) {
			t.Errorf("transition log missing %q", tag)
		}
	}
}

func TestSummaryLines(t *testing.T) {
	stats, err := Run(cheapConfig())
	if err != nil {
		t.Fatal(err)
	}
	lines := stats.Summary()
	if len(lines) != 7 {
		t.Errorf("summary has %d lines", len(lines))
	}
}
