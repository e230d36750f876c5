// Package core integrates the DTSVLIW machine (paper §3, Figure 1): the
// Primary Processor and Scheduler Unit (the Scheduler Engine), the VLIW
// Cache and the VLIW Engine, the Fetch Unit's engine-switching policy, the
// memory hierarchy, exception handling, and the lockstep test mode used by
// the paper's experimental methodology (§4).
package core

import (
	"fmt"

	"hash/fnv"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/primary"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vcache"
	"dtsvliw/internal/vliw"
)

// Config parameterises a DTSVLIW machine. Table 1 invariants have
// defaults in IdealConfig/FeasibleConfig.
type Config struct {
	// Block geometry: Width instructions per long instruction, Height
	// long instructions per block.
	Width, Height int
	// FUs assigns a functional-unit class per slot; nil = homogeneous
	// (any instruction in any slot, the paper's geometry studies).
	FUs []isa.FUClass

	NWin int // register windows

	ICache mem.CacheConfig
	DCache mem.CacheConfig

	VCacheKB    int
	VCacheAssoc int
	// DecodedBytes is the size of one decoded instruction in the VLIW
	// Cache (Table 1: 6 bytes); NBABytes sizes the nba store.
	DecodedBytes int
	NBABytes     int

	// NextLIMissPenalty is charged on every block-to-block transition in
	// the VLIW Engine (0 in the ideal studies, 1 in the feasible machine).
	NextLIMissPenalty int

	// Engine-switch costs: discarded plus refilled pipeline stages
	// (paper §3.6).
	SwitchToVLIW    int
	SwitchToPrimary int

	Pipeline primary.Config

	// StoreScheme selects the VLIW Engine's store-recoverability
	// mechanism: the evaluated checkpoint scheme or the paper's §3.11
	// data-store-list alternative.
	StoreScheme vliw.StoreScheme

	// NoChain disables direct block chaining (DESIGN.md §16): block
	// transitions in VLIW mode fall back to the legacy one-long-
	// instruction-per-dispatch loop with an associative VLIW Cache lookup
	// at every transition. Chaining is architecturally invisible — Stats,
	// IPC and cycle ledgers are identical either way — so this switch
	// exists for cross-checking and as the perf-gate baseline.
	NoChain bool

	// ExitPrediction enables next-long-instruction prediction (paper §5
	// future work): a last-target predictor keyed by the deviating
	// branch hides the one-cycle trace-exit bubble on a correct
	// prediction.
	ExitPrediction bool

	// NoSourceForwarding disables consumer rewriting to renaming
	// registers in the Scheduler Unit (ablation; see DESIGN.md §5a).
	NoSourceForwarding bool

	// SchedStrategy selects the Scheduler Unit's placement policy by
	// registry name (DESIGN.md §14): empty = "fcfs", the paper's hardware
	// algorithm; "optimal" repacks every block to its minimum height at
	// flush time (the scheduling-gap oracle); "one-per-block" is the
	// degenerate reference. Unknown names fail NewMachine.
	SchedStrategy string

	// SchedNodeBudget bounds search-based strategies per block (the
	// branch-and-bound node budget of the optimal repacker): 0 selects the
	// strategy default, negative removes the bound.
	SchedNodeBudget int

	// LoadLatency/FPLatency/FPDivLatency enable the multicycle-
	// instruction extension (the paper's companion study [14]); zero or
	// one keeps the Table 1 single-cycle baseline.
	LoadLatency  int
	FPLatency    int
	FPDivLatency int

	// Telemetry, when non-nil, attaches a cycle-stamped telemetry
	// collector to the machine (DESIGN.md §12): event tracing, per-block
	// profiles and distribution histograms, readable through
	// Machine.Telemetry after the run. Nil keeps every hook on its
	// zero-overhead disabled path.
	Telemetry *telemetry.Config

	// Metrics selects the registry the machine's always-on metrics
	// publisher resolves its instruments against (DESIGN.md §17); nil
	// publishes to the process-wide metrics.Default registry. Metrics are
	// skipped entirely — no publisher is built — when the process-wide
	// switch is off (metrics.SetEnabled(false)) at machine construction.
	Metrics *metrics.Registry

	// TestMode runs the sequential test machine in lockstep and compares
	// architectural state at every synchronisation point (paper §4).
	TestMode bool

	// VerifyBlocks statically verifies every block at save time with the
	// block-legality checker (internal/blockcheck): the scheduler records
	// each block's sequential trace and saveBlock proves the schedule
	// preserves the source dependences before it enters the VLIW Cache,
	// failing the run with a BlockVerifyError otherwise. Off by default:
	// trace recording allocates per block and verification is O(slots²),
	// so the zero-alloc hot paths stay intact only when disabled.
	VerifyBlocks bool

	// FaultDropCopy injects a deliberate scheduler bug (splits lose their
	// copy instruction) for the differential oracle's meta-test. Test-only;
	// see sched.Config.FaultDropCopy.
	FaultDropCopy bool

	// FaultDropRename/FaultSwapSlots/FaultLatencyViolation inject the
	// scheduler faults the blockcheck meta-tests assert detection of; see
	// the matching sched.Config switches. Test-only.
	FaultDropRename       bool
	FaultSwapSlots        bool
	FaultLatencyViolation bool

	// MaxInstrs stops the simulation after this many sequential
	// instructions (0 = run until the program halts). MaxCycles is a
	// safety limit.
	MaxInstrs uint64
	MaxCycles uint64

	// FastForward executes the first N sequential instructions on the
	// plain interpreter before cycle-accurate simulation begins: no
	// scheduling, no caches, no pipeline pricing, no cycles charged. It
	// skips measurement past a warmup prefix (program initialisation)
	// at interpreter speed. The fast-forwarded prefix still counts
	// toward MaxInstrs and is reported in Stats.FastForwarded; IPC then
	// covers only the measured region. Ignored in TestMode beyond a
	// single aggregate checkpoint (the lockstep reference is advanced
	// by the same prefix).
	FastForward uint64
}

// ConfigFingerprint returns a short stable digest of a machine
// configuration with its run-scoped attachments (telemetry collector,
// metrics registry) elided: equal fingerprints mean identical machine
// geometry and behaviour. The digest is stable across processes — Config
// contains no maps or pointers once the attachments are stripped — so it
// keys content-addressed result caches and labels /statusz.
func ConfigFingerprint(cfg Config) string {
	k := cfg
	k.Telemetry = nil
	k.Metrics = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", k)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("core: block geometry %dx%d invalid", c.Width, c.Height)
	}
	if c.NWin < 2 {
		return fmt.Errorf("core: nwin %d invalid", c.NWin)
	}
	if c.VCacheKB <= 0 || c.VCacheAssoc <= 0 {
		return fmt.Errorf("core: VLIW cache %dKB/%d-way invalid", c.VCacheKB, c.VCacheAssoc)
	}
	if c.FUs != nil && len(c.FUs) != c.Width {
		return fmt.Errorf("core: %d FU classes for width %d", len(c.FUs), c.Width)
	}
	return nil
}

// VCacheConfig derives the VLIW Cache configuration.
func (c Config) VCacheConfig() vcache.Config {
	return vcache.Config{
		SizeKB: c.VCacheKB, Assoc: c.VCacheAssoc,
		Width: c.Width, Height: c.Height,
		DecodedBytes: c.DecodedBytes, NBABytes: c.NBABytes,
	}
}

// IdealConfig returns the configuration of the paper's architecture
// studies (§4.1–§4.3): perfect instruction and data caches, a large
// (3072-KB) 4-way VLIW Cache, no next-long-instruction miss penalty,
// homogeneous functional units, and Table 1 pipeline costs.
func IdealConfig(width, height int) Config {
	return Config{
		Width: width, Height: height,
		NWin:         16,
		ICache:       mem.CacheConfig{Perfect: true},
		DCache:       mem.CacheConfig{Perfect: true},
		VCacheKB:     3072,
		VCacheAssoc:  4,
		DecodedBytes: 6,
		NBABytes:     5,
		SwitchToVLIW: 2, SwitchToPrimary: 3,
		Pipeline:  primary.DefaultConfig(),
		MaxCycles: 1 << 62,
	}
}

// FeasibleConfig returns the paper's §4.4 feasible machine: 32-KB 4-way
// Instruction Cache and 32-KB direct-mapped Data Cache (1-cycle access,
// 8-cycle miss), a 192-KB 4-way VLIW Cache, 1-cycle next-long-instruction
// miss penalty, and ten non-homogeneous functional units (4 integer, 2
// load/store, 2 floating-point, 2 branch), all with 1-cycle latency.
func FeasibleConfig() Config {
	cfg := IdealConfig(10, 8)
	cfg.FUs = []isa.FUClass{
		isa.FUInt, isa.FUInt, isa.FUInt, isa.FUInt,
		isa.FULoadStore, isa.FULoadStore,
		isa.FUFloat, isa.FUFloat,
		isa.FUBranch, isa.FUBranch,
	}
	cfg.ICache = mem.CacheConfig{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 4, MissPenalty: 8}
	cfg.DCache = mem.CacheConfig{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 1, MissPenalty: 8}
	cfg.VCacheKB = 192
	cfg.NextLIMissPenalty = 1
	return cfg
}
