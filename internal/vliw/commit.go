package vliw

import (
	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// resetScratch readies the per-LI scratch arenas for a new long
// instruction.
func (e *Engine) resetScratch() {
	e.scWrites = e.scWrites[:0]
	e.scLRens = e.scLRens[:0]
	e.scPend = e.scPend[:0]
	e.scMemOps = e.scMemOps[:0]
	e.scMemAddrs = e.scMemAddrs[:0]
	e.scStores = e.scStores[:0]
}

// commitLI runs the commit phases over the scratch arenas. Phase 4:
// in-flight writes from earlier long instructions land first (when an
// older producer's latency expires in the same long instruction in which
// a younger instruction writes the same location, program order requires
// the younger value to survive), then this long instruction's writes
// apply or queue on their due line, then buffered stores reach memory
// under the active recoverability scheme. Phase 5 records cross-bit
// memory operations in the load/store lists. It returns false if a
// memory fault forced a rollback, with res filled in.
func (e *Engine) commitLI(line int, res *Result) bool {
	e.commitDue(line)
	for _, w := range e.scWrites {
		if w.due <= line {
			e.applyWrite(w.w)
		} else {
			e.pendWrites = append(e.pendWrites, w)
			if w.due > e.maxDue {
				e.maxDue = w.due
			}
		}
	}
	for _, r := range e.scLRens {
		if r.due <= line {
			e.setRenFlat(r.flat, r.v)
		} else {
			e.lpendRens = append(e.lpendRens, r)
			if r.due > e.maxDue {
				e.maxDue = r.due
			}
		}
	}
	for _, ms := range e.scPend {
		if e.scheme == SchemeStoreList {
			// Buffer in the data store list; memory is written at block
			// end (drain) and the journal is produced there.
			if !e.st.Mem.Mapped(ms.addr) {
				e.Stats.Exceptions++
				res.RecoveryCycles = e.recover()
				res.Exception = true
				res.Err = &mem.FaultError{Addr: ms.addr}
				return false
			}
			e.overlay.add(ms)
			continue
		}
		old, err := e.st.Mem.Read(ms.addr, ms.size)
		if err == nil {
			e.undo = append(e.undo, undoRec{addr: ms.addr, old: old, size: ms.size})
			err = e.st.Mem.Write(ms.addr, ms.val, ms.size)
		}
		if err != nil {
			e.Stats.Exceptions++
			res.RecoveryCycles = e.recover()
			res.Exception = true
			res.Err = err
			return false
		}
		e.scStores = append(e.scStores, arch.StoreRec{Addr: ms.addr, Size: ms.size})
	}
	if e.scheme == SchemeStoreList {
		if n := len(e.overlay.log); n > e.Stats.MaxDataStoreList {
			e.Stats.MaxDataStoreList = n
		}
	} else if len(e.undo) > e.Stats.MaxCkptList {
		e.Stats.MaxCkptList = len(e.undo)
	}

	// Phase 5: record cross-bit memory operations in the load/store lists.
	for _, m := range e.scMemOps {
		if !m.cross {
			continue
		}
		rec := memRec{addr: m.addr, size: m.size, order: m.order}
		if m.isStore {
			e.strs = append(e.strs, rec)
		} else {
			e.loads = append(e.loads, rec)
		}
	}
	if len(e.loads) > e.Stats.MaxLoadList {
		e.Stats.MaxLoadList = len(e.loads)
	}
	if len(e.strs) > e.Stats.MaxStoreList {
		e.Stats.MaxStoreList = len(e.strs)
	}
	return true
}

func isAliasing(err error) bool {
	_, ok := err.(*AliasingError)
	return ok
}

// checkAliasing applies the paper's §3.10 rules: every load compares
// against the stores of its long instruction and the store list; every
// store compares against the loads and stores of its long instruction and
// both lists. An order inversion on an address overlap raises an aliasing
// exception.
func (e *Engine) checkAliasing(memOps []opMem) error {
	for i, m := range memOps {
		// Same-long-instruction comparisons.
		for j, o := range memOps {
			if i == j {
				continue
			}
			if !(o.addr < m.addr+uint32(m.size) && m.addr < o.addr+uint32(o.size)) {
				continue
			}
			if !m.isStore && o.isStore && m.order < o.order {
				return &AliasingError{Addr: m.addr, LoadOrder: m.order, StoreOrder: o.order,
					Description: "load before same-LI store"}
			}
			if m.isStore && m.order < o.order {
				return &AliasingError{Addr: m.addr, LoadOrder: o.order, StoreOrder: m.order,
					Description: "store reordered within LI"}
			}
		}
		if !m.isStore {
			// Load vs the store list.
			for _, srec := range e.strs {
				if overlaps(srec, m.addr, m.size) && m.order < srec.order {
					return &AliasingError{Addr: m.addr, LoadOrder: m.order, StoreOrder: srec.order,
						Description: "load executed after younger store"}
				}
			}
			continue
		}
		// Store vs both lists.
		for _, lrec := range e.loads {
			if overlaps(lrec, m.addr, m.size) && m.order < lrec.order {
				return &AliasingError{Addr: m.addr, LoadOrder: lrec.order, StoreOrder: m.order,
					Description: "store executed after younger load"}
			}
		}
		for _, srec := range e.strs {
			if overlaps(srec, m.addr, m.size) && m.order < srec.order {
				return &AliasingError{Addr: m.addr, LoadOrder: srec.order, StoreOrder: m.order,
					Description: "store executed after younger store"}
			}
		}
	}
	return nil
}

func (e *Engine) applyWrite(w bufWrite) {
	switch w.kind {
	case isa.LocIReg:
		e.st.WriteReg(w.idx, w.val)
	case isa.LocFReg:
		e.st.WriteF(uint8(w.idx), w.val)
	case isa.LocICC:
		e.st.SetICC(uint8(w.val))
	case isa.LocFCC:
		e.st.SetFCC(uint8(w.val))
	case isa.LocY:
		e.st.SetY(w.val)
	case isa.LocCWP:
		e.st.SetCWP(uint8(w.val))
	}
}

// commitDue applies pending delayed writes whose due long instruction has
// been reached.
func (e *Engine) commitDue(line int) {
	if len(e.pendWrites) > 0 {
		keep := e.pendWrites[:0]
		for _, p := range e.pendWrites {
			if p.due <= line {
				e.applyWrite(p.w)
			} else {
				keep = append(keep, p)
			}
		}
		e.pendWrites = keep
	}
	if len(e.lpendRens) > 0 {
		keep := e.lpendRens[:0]
		for _, p := range e.lpendRens {
			if p.due <= line {
				e.setRenFlat(p.flat, p.v)
			} else {
				keep = append(keep, p)
			}
		}
		e.lpendRens = keep
	}
}

// FlushPending commits every delayed write at a block boundary (normal
// end or trace exit) and returns the stall cycles needed for the longest
// in-flight latency to complete (zero with all-1 latencies). lastLine is
// the last long instruction executed.
func (e *Engine) FlushPending(lastLine int) int {
	stall := 0
	if e.maxDue > lastLine {
		stall = e.maxDue - lastLine
	}
	e.commitDue(1 << 30)
	e.maxDue = 0
	return stall
}
