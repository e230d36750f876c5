package vliw

import "dtsvliw/internal/arch"

// StoreScheme selects how the VLIW Engine makes stores recoverable
// (paper §3.11 describes both).
type StoreScheme uint8

const (
	// SchemeCheckpoint writes stores through to the Data Cache while
	// saving the overwritten data in the checkpoint recovery store list;
	// recovery replays the list backwards. This is the scheme the paper
	// evaluates.
	SchemeCheckpoint StoreScheme = iota

	// SchemeStoreList buffers store data in a data store list and only
	// transfers it to the Data Cache after the block finishes without
	// exceptions, in order. Recovery just discards the list — the
	// alternative the paper proposes for workloads needing in-order
	// memory writes, left to "further research". Loads within the block
	// read the list (newest entry wins) before the Data Cache.
	SchemeStoreList
)

// dataStoreOverlay is the byte-granular view of the pending data store
// list, so loads of any size can snoop buffered stores of any size.
type dataStoreOverlay struct {
	bytes map[uint32]byte
	log   []microStore // in commit order, for the in-order drain
}

func newOverlay() *dataStoreOverlay {
	return &dataStoreOverlay{bytes: make(map[uint32]byte)}
}

func (o *dataStoreOverlay) reset() {
	if len(o.bytes) > 0 {
		o.bytes = make(map[uint32]byte)
	}
	o.log = o.log[:0]
}

// add buffers one store.
func (o *dataStoreOverlay) add(ms microStore) {
	o.log = append(o.log, ms)
	for i := uint8(0); i < ms.size; i++ {
		shift := uint32(ms.size-1-i) * 8
		o.bytes[ms.addr+uint32(i)] = byte(ms.val >> shift)
	}
}

// read returns size bytes at addr, merging buffered store bytes over the
// backing memory.
func (o *dataStoreOverlay) read(e *Engine, addr uint32, size uint8) (uint32, error) {
	if len(o.bytes) == 0 {
		return e.st.Mem.Read(addr, size)
	}
	var v uint32
	for i := uint8(0); i < size; i++ {
		a := addr + uint32(i)
		if b, ok := o.bytes[a]; ok {
			v = v<<8 | uint32(b)
			continue
		}
		b, err := e.st.Mem.ByteAt(a)
		if err != nil {
			return 0, err
		}
		v = v<<8 | uint32(b)
	}
	return v, nil
}

// drain transfers the data store list to memory in order (normal block
// end, paper §3.11: "the order field can be used to transfer this data to
// the Data Cache in order"). It returns the journal of committed stores
// for lockstep comparison and the number of entries drained.
func (e *Engine) drainStoreList() ([]arch.StoreRec, int, error) {
	o := e.overlay
	if o == nil || len(o.log) == 0 {
		return nil, 0, nil
	}
	var recs []arch.StoreRec
	n := len(o.log)
	for _, ms := range o.log {
		if err := e.st.Mem.Write(ms.addr, ms.val, ms.size); err != nil {
			return recs, n, err
		}
		recs = append(recs, arch.StoreRec{Addr: ms.addr, Size: ms.size})
	}
	o.reset()
	return recs, n, nil
}

// EndBlock finalises the current block after it completed or exited
// without an exception: under SchemeStoreList the data store list drains
// to the Data Cache in order. It returns the journal of memory writes
// performed for lockstep comparison.
func (e *Engine) EndBlock() ([]arch.StoreRec, error) {
	if e.scheme != SchemeStoreList {
		return nil, nil
	}
	recs, _, err := e.drainStoreList()
	return recs, err
}

// SetScheme selects the store-recoverability scheme. Must be called
// before BeginLowered.
func (e *Engine) SetScheme(s StoreScheme) {
	e.scheme = s
	if s == SchemeStoreList && e.overlay == nil {
		e.overlay = newOverlay()
	}
}

// Scheme returns the active store scheme.
func (e *Engine) Scheme() StoreScheme { return e.scheme }
