package core

import (
	"encoding/binary"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/telemetry"
)

// MachineContext bundles one architectural state with one DTSVLIW machine
// over it, so the pair can be reset and reused across program runs instead
// of being rebuilt per run (machine construction — VLIW Cache line array,
// scheduler tables, cache tag stores — dominates the allocation profile of
// short differential runs). The lifecycle per run is:
//
//	ctx := pool.Get(cfg)          // or NewMachineContext(cfg)
//	load program into ctx.State() // sections, stack, PC, text range
//	m, err := ctx.Prepare()       // warm machine, built on first use
//	m.Run()
//	pool.Put(ctx)                 // resets state+machine, shelves context
//
// The machine is built lazily at Prepare, after the program is loaded,
// because TestMode clones the architectural state at construction time.
type MachineContext struct {
	cfg    Config
	key    poolKey
	st     *arch.State
	m      *Machine
	pooled bool
}

// Poolable reports whether cfg supports context reuse. TestMode machines
// clone the state at construction and telemetry collectors accumulate for
// exactly one run, so both are built one-shot; everything else resets.
func Poolable(cfg Config) bool {
	return !cfg.TestMode && cfg.Telemetry == nil
}

// NewMachineContext builds a fresh context for cfg: an empty architectural
// state (no program loaded) and a machine deferred to Prepare.
func NewMachineContext(cfg Config) (*MachineContext, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MachineContext{
		cfg:    cfg,
		key:    newPoolKey(&cfg),
		st:     arch.NewState(cfg.NWin, mem.NewMemory()),
		pooled: Poolable(cfg),
	}, nil
}

// State returns the context's architectural state, for program loading.
// After Get/NewMachineContext it is observationally a fresh state over a
// fresh memory.
func (c *MachineContext) State() *arch.State { return c.st }

// Config returns the configuration the context was built for.
func (c *MachineContext) Config() Config { return c.cfg }

// Prepare returns the context's machine, building it on first use (and on
// every use for non-poolable configurations, whose machines are one-shot).
// Call it after the program has been loaded into State.
func (c *MachineContext) Prepare() (*Machine, error) {
	if c.m != nil && c.pooled {
		return c.m, nil
	}
	m, err := NewMachine(c.cfg, c.st)
	if err != nil {
		return nil, err
	}
	if c.pooled {
		c.m = m
	}
	return m, nil
}

// Recycle resets the context for another run: the architectural state
// returns to power-on, the memory unmaps every page into its free list,
// and the machine (if built) resets. A no-op for non-poolable contexts.
func (c *MachineContext) Recycle() {
	if !c.pooled {
		return
	}
	c.st.Reset()
	c.st.Mem.Recycle()
	if c.m != nil {
		c.m.Reset()
	}
}

// MachinePool hands out warm MachineContexts keyed by configuration. It
// is NOT safe for concurrent use: parallel drivers keep one pool per
// worker, which also keeps runs deterministic (a context's allocation
// history never depends on sibling workers).
type MachinePool struct {
	free map[poolKey][]*MachineContext

	// Hits counts Gets served by a recycled context, Misses those that
	// built a fresh one (non-poolable configurations always miss).
	Hits, Misses uint64
}

// NewMachinePool builds an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{free: make(map[poolKey][]*MachineContext)}
}

// Get returns a context for cfg, recycling a shelved one when available.
func (p *MachinePool) Get(cfg Config) (*MachineContext, error) {
	var buf [configKeyLen]byte
	enc := appendConfigKey(buf[:0], &cfg)
	if list := p.free[poolKey{cfg.Telemetry, cfg.Metrics, string(enc)}]; len(list) > 0 {
		c := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[c.key] = list[:len(list)-1]
		p.Hits++
		return c, nil
	}
	p.Misses++
	return NewMachineContext(cfg)
}

// Put recycles a context back into the pool. Non-poolable contexts (and
// nil) are dropped.
func (p *MachinePool) Put(c *MachineContext) {
	if c == nil || !c.pooled {
		return
	}
	c.Recycle()
	p.free[c.key] = append(p.free[c.key], c)
}

// poolKey identifies a configuration. Two configs with equal keys build
// machines with identical geometry and behaviour, so their contexts are
// interchangeable. The two pointer attachments enter by identity: reading
// through them would reflect into shared mutable state (the metrics
// registry's maps race with concurrent publishers), and pointer identity
// is what pooling needs anyway — a pooled machine keeps publishing to the
// registry it resolved instruments from, so contexts are interchangeable
// only within one registry. Every other field is in cfg, encoded by
// appendConfigKey.
type poolKey struct {
	tel *telemetry.Config
	met *metrics.Registry
	cfg string
}

func newPoolKey(cfg *Config) poolKey {
	var buf [configKeyLen]byte
	return poolKey{cfg.Telemetry, cfg.Metrics, string(appendConfigKey(buf[:0], cfg))}
}

// configKeyLen is the usual length of appendConfigKey's encoding (the
// fixed part plus ten FU classes and a short strategy name), the size
// of the stack buffers it is built in.
const configKeyLen = 32*8 + 2 + 1 + 10 + 16

// appendConfigKey appends an injective encoding of every Config field
// except Telemetry and Metrics: every number at fixed width (the lengths
// of FUs and SchedStrategy among them), the flags as one bit set, then
// the FUs classes and the strategy name. TestPoolKeyCoversConfig fails
// when a field is added to Config (or to a struct nested in it) without
// being encoded here.
func appendConfigKey(b []byte, c *Config) []byte {
	for _, v := range [...]int{
		c.Width, c.Height, len(c.FUs), c.NWin,
		c.ICache.SizeBytes, c.ICache.LineBytes, c.ICache.Assoc, c.ICache.MissPenalty,
		c.DCache.SizeBytes, c.DCache.LineBytes, c.DCache.Assoc, c.DCache.MissPenalty,
		c.VCacheKB, c.VCacheAssoc, c.DecodedBytes, c.NBABytes,
		c.NextLIMissPenalty, c.SwitchToVLIW, c.SwitchToPrimary,
		c.Pipeline.NotTakenBranchBubble, c.Pipeline.LoadUseBubble,
		c.Pipeline.LoadLatency, c.Pipeline.FPLatency, c.Pipeline.FPDivLatency,
		len(c.SchedStrategy), c.SchedNodeBudget,
		c.LoadLatency, c.FPLatency, c.FPDivLatency,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range [...]uint64{c.MaxInstrs, c.MaxCycles, c.FastForward} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	var flags uint16
	for i, v := range [...]bool{
		c.ICache.Perfect, c.DCache.Perfect, c.NoChain, c.ExitPrediction,
		c.NoSourceForwarding, c.TestMode, c.VerifyBlocks, c.FaultDropCopy,
		c.FaultDropRename, c.FaultSwapSlots, c.FaultLatencyViolation,
	} {
		if v {
			flags |= 1 << i
		}
	}
	b = binary.LittleEndian.AppendUint16(b, flags)
	b = append(b, byte(c.StoreScheme))
	for _, fu := range c.FUs {
		b = append(b, byte(fu))
	}
	return append(b, c.SchedStrategy...)
}
