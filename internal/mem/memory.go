// Package mem provides the DTSVLIW memory substrate: a sparse flat 32-bit
// byte-addressable memory holding program, data and stack, and
// set-associative cache timing models for the Instruction Cache, the Data
// Cache and (structurally) the VLIW Cache.
//
// Caches here model *timing only*: data always lives in Memory, and a cache
// access returns the number of penalty cycles it costs. This matches the
// paper's simulator, which charges miss latencies but keeps one memory
// image.
package mem

import (
	"encoding/binary"
	"fmt"
)

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, page-allocated 32-bit physical memory. Multi-byte
// values are big-endian, following SPARC. The zero value is an empty
// memory ready for use.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	// free recycles unmapped pages (see Recycle) so a reused memory maps
	// pages without allocating in the steady state.
	free []*[pageSize]byte

	// Faults counts accesses to unmapped addresses (every FaultError
	// returned). Zeroed by Recycle with the rest of the observable state;
	// the metrics publisher snapshots it at coarse sync points.
	Faults uint64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

// Recycle unmaps every page, moving the backing storage to an internal
// free list that later Map/LoadBytes calls draw from. The observable
// state is exactly that of a fresh memory: every address faults until it
// is mapped again, and recycled pages are re-zeroed before reuse.
func (m *Memory) Recycle() {
	for pn, p := range m.pages {
		m.free = append(m.free, p)
		delete(m.pages, pn)
	}
	m.Faults = 0
}

// FaultError reports an access to an unmapped address.
type FaultError struct{ Addr uint32 }

func (e *FaultError) Error() string {
	return fmt.Sprintf("mem: fault at %#08x (unmapped)", e.Addr)
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && create {
		if n := len(m.free); n > 0 {
			p = m.free[n-1]
			m.free = m.free[:n-1]
			*p = [pageSize]byte{}
		} else {
			p = new([pageSize]byte)
		}
		m.pages[pn] = p
	}
	return p
}

// Map ensures [addr, addr+size) is allocated (zero-filled).
func (m *Memory) Map(addr, size uint32) {
	for a := addr &^ (pageSize - 1); a < addr+size; a += pageSize {
		m.page(a, true)
		if a > 0xFFFFFFFF-pageSize {
			break
		}
	}
}

// Mapped reports whether addr is in an allocated page.
func (m *Memory) Mapped(addr uint32) bool { return m.page(addr, false) != nil }

// ByteAt reads one byte.
func (m *Memory) ByteAt(addr uint32) (byte, error) {
	p := m.page(addr, false)
	if p == nil {
		m.Faults++
		return 0, &FaultError{Addr: addr}
	}
	return p[addr&(pageSize-1)], nil
}

// SetByte writes one byte.
func (m *Memory) SetByte(addr uint32, v byte) error {
	p := m.page(addr, false)
	if p == nil {
		m.Faults++
		return &FaultError{Addr: addr}
	}
	p[addr&(pageSize-1)] = v
	return nil
}

// Read reads size bytes (1, 2 or 4) big-endian, zero-extended. An access
// inside one page (every aligned one) looks the page up once; one that
// crosses a page boundary reads byte by byte and faults at the first
// unmapped byte.
func (m *Memory) Read(addr uint32, size uint8) (uint32, error) {
	if off := addr & (pageSize - 1); off+uint32(size) <= pageSize {
		p := m.pages[addr>>pageBits]
		if p == nil {
			m.Faults++
			return 0, &FaultError{Addr: addr}
		}
		b := p[off : off+uint32(size)]
		switch size {
		case 4:
			return binary.BigEndian.Uint32(b), nil
		case 2:
			return uint32(binary.BigEndian.Uint16(b)), nil
		}
		var v uint32
		for _, x := range b {
			v = v<<8 | uint32(x)
		}
		return v, nil
	}
	var v uint32
	for i := uint8(0); i < size; i++ {
		b, err := m.ByteAt(addr + uint32(i))
		if err != nil {
			return 0, err
		}
		v = v<<8 | uint32(b)
	}
	return v, nil
}

// Write writes the low size bytes (1, 2 or 4) of v big-endian. As with
// Read, an access inside one page looks the page up once and writes
// nothing if it is unmapped; one that crosses a page boundary writes byte
// by byte, up to the first unmapped byte.
func (m *Memory) Write(addr uint32, v uint32, size uint8) error {
	if off := addr & (pageSize - 1); off+uint32(size) <= pageSize {
		p := m.pages[addr>>pageBits]
		if p == nil {
			m.Faults++
			return &FaultError{Addr: addr}
		}
		b := p[off : off+uint32(size)]
		switch size {
		case 4:
			binary.BigEndian.PutUint32(b, v)
		case 2:
			binary.BigEndian.PutUint16(b, uint16(v))
		default:
			for i := len(b) - 1; i >= 0; i-- {
				b[i] = byte(v)
				v >>= 8
			}
		}
		return nil
	}
	for i := uint8(0); i < size; i++ {
		shift := uint32(size-1-i) * 8
		if err := m.SetByte(addr+uint32(i), byte(v>>shift)); err != nil {
			return err
		}
	}
	return nil
}

// ReadWord reads a 32-bit big-endian word.
func (m *Memory) ReadWord(addr uint32) (uint32, error) { return m.Read(addr, 4) }

// WriteWord writes a 32-bit big-endian word.
func (m *Memory) WriteWord(addr uint32, v uint32) error { return m.Write(addr, v, 4) }

// LoadBytes copies data into memory at addr, mapping pages as needed.
func (m *Memory) LoadBytes(addr uint32, data []byte) {
	m.Map(addr, uint32(len(data)))
	for i, b := range data {
		p := m.page(addr+uint32(i), true)
		p[(addr+uint32(i))&(pageSize-1)] = b
	}
}

// Snapshot returns a deep copy of the memory (used by the lockstep test
// machine and by checkpoint verification in tests).
func (m *Memory) Snapshot() *Memory {
	c := NewMemory()
	for pn, p := range m.pages {
		np := new([pageSize]byte)
		*np = *p
		c.pages[pn] = np
	}
	return c
}

// Equal reports whether two memories have identical contents. Unmapped
// pages compare equal to zero-filled pages.
func (m *Memory) Equal(o *Memory) bool {
	return m.diffAgainst(o) && o.diffAgainst(m)
}

func (m *Memory) diffAgainst(o *Memory) bool {
	for pn, p := range m.pages {
		op := o.pages[pn]
		if op == nil {
			for _, b := range p {
				if b != 0 {
					return false
				}
			}
			continue
		}
		if *p != *op {
			return false
		}
	}
	return true
}

// FirstDiff returns the lowest address at which the two memories differ,
// for diagnostics. ok is false if they are identical. Unmapped pages
// compare equal to zero-filled pages. Pages whose contents are equal are
// skipped whole; bytes are scanned only inside a page that differs.
func (m *Memory) FirstDiff(o *Memory) (addr uint32, ok bool) {
	best, found := uint32(0xFFFFFFFF), false
	check := func(a, b *Memory, both bool) {
		for pn, p := range a.pages {
			op := b.pages[pn]
			switch {
			case op == nil:
				op = &zeroPage
			case !both:
				continue // mapped on both sides: the first pass covered it
			}
			if *p == *op || found && pn<<pageBits > best {
				continue
			}
			for i := range p {
				if p[i] != op[i] {
					best, found = pn<<pageBits|uint32(i), true
					break
				}
			}
		}
	}
	check(m, o, true)
	check(o, m, false)
	return best, found
}

// zeroPage is the contents of an unmapped page.
var zeroPage [pageSize]byte
