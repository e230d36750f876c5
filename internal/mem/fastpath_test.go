package mem

import (
	"errors"
	"fmt"
	"testing"
)

// byteRead and byteWrite are the byte-at-a-time Read and Write the
// one-lookup fast path must be indistinguishable from.
func byteRead(m *Memory, addr uint32, size uint8) (uint32, error) {
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

func byteWrite(m *Memory, addr uint32, v uint32, size uint8) error {
	for i := uint8(0); i < size; i++ {
		if err := m.SetByte(addr+uint32(i), byte(v>>(uint32(size-1-i)*8))); err != nil {
			return err
		}
	}
	return nil
}

// faultAddr is the address of a *FaultError, or -1 for no error.
func faultAddr(t *testing.T, err error) int64 {
	t.Helper()
	if err == nil {
		return -1
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FaultError", err)
	}
	return int64(fe.Addr)
}

// TestReadWriteMatchByteWise: at the last four offsets of a page, for
// every size and every mapping of the page and its successor, Read and
// Write agree with the byte-wise reference on the value, the fault
// address, the Faults count and the resulting memory; a faulting access
// inside one page writes nothing.
func TestReadWriteMatchByteWise(t *testing.T) {
	const first, second = 0x10000, 0x11000
	build := func(mapFirst, mapSecond bool) *Memory {
		m := NewMemory()
		for _, page := range []struct {
			base   uint32
			mapped bool
		}{{first, mapFirst}, {second, mapSecond}} {
			if !page.mapped {
				continue
			}
			m.Map(page.base, pageSize)
			for i := uint32(0); i < pageSize; i++ {
				m.SetByte(page.base+i, byte(i*7+page.base>>12))
			}
		}
		return m
	}
	for _, mapFirst := range []bool{true, false} {
		for _, mapSecond := range []bool{true, false} {
			for off := uint32(pageSize - 4); off < pageSize; off++ {
				for _, size := range []uint8{1, 2, 4} {
					addr := first + off
					name := fmt.Sprintf("first=%v/second=%v/off=%d/size=%d", mapFirst, mapSecond, off, size)
					got, want := build(mapFirst, mapSecond), build(mapFirst, mapSecond)
					gv, gerr := got.Read(addr, size)
					wv, werr := byteRead(want, addr, size)
					if gv != wv || faultAddr(t, gerr) != faultAddr(t, werr) || got.Faults != want.Faults {
						t.Fatalf("%s: Read = %#x, %v (faults %d); byte-wise %#x, %v (faults %d)",
							name, gv, gerr, got.Faults, wv, werr, want.Faults)
					}

					before := got.Snapshot()
					gerr = got.Write(addr, 0xA1B2C3D4, size)
					werr = byteWrite(want, addr, 0xA1B2C3D4, size)
					if faultAddr(t, gerr) != faultAddr(t, werr) || got.Faults != want.Faults {
						t.Fatalf("%s: Write = %v (faults %d); byte-wise %v (faults %d)",
							name, gerr, got.Faults, werr, want.Faults)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: memory after Write differs from the byte-wise write", name)
					}
					if gerr != nil && off+uint32(size) <= pageSize && !got.Equal(before) {
						t.Fatalf("%s: faulting in-page Write changed memory", name)
					}
				}
			}
		}
	}
}

// firstDiffBrute scans every byte of every page either memory maps.
func firstDiffBrute(m, o *Memory) (uint32, bool) {
	best, found := uint32(0), false
	for _, pages := range []map[uint32]*[pageSize]byte{m.pages, o.pages} {
		for pn := range pages {
			for i := uint32(0); i < pageSize; i++ {
				a := pn<<pageBits | i
				x, _ := m.ByteAt(a)
				y, _ := o.ByteAt(a)
				if x != y && (!found || a < best) {
					best, found = a, true
				}
			}
		}
	}
	return best, found
}

// TestFirstDiffLowestAcrossPages: with differences in several pages, and
// with a page mapped on one side only, FirstDiff returns the lowest
// differing address in both directions.
func TestFirstDiffLowestAcrossPages(t *testing.T) {
	base := func() *Memory {
		m := NewMemory()
		for _, p := range []uint32{0x3000, 0x5000, 0x9000} {
			m.Map(p, pageSize)
			for i := uint32(0); i < pageSize; i += 97 {
				m.SetByte(p+i, byte(i))
			}
		}
		return m
	}
	cases := []struct {
		name string
		edit func(m, o *Memory)
		want uint32
	}{
		{"several pages", func(m, o *Memory) {
			o.SetByte(0x9010, 0xEE)
			o.SetByte(0x5FFF, 0xEE)
			o.SetByte(0x5123, 0xEE)
		}, 0x5123},
		{"unmapped vs non-zero page", func(m, o *Memory) {
			o.SetByte(0x9010, 0xEE)
			m.Map(0x1000, pageSize)
			m.SetByte(0x1ABC, 1)
		}, 0x1ABC},
		{"unmapped vs zero page is equal", func(m, o *Memory) {
			m.Map(0x1000, pageSize)
			o.SetByte(0x3001, 0xEE)
		}, 0x3001},
		{"lower difference in a page mapped on one side", func(m, o *Memory) {
			m.SetByte(0x5200, 0xEE)
			o.Map(0x4000, pageSize)
			o.SetByte(0x4FFF, 2)
		}, 0x4FFF},
	}
	for _, c := range cases {
		m, o := base(), base()
		c.edit(m, o)
		for _, dir := range [][2]*Memory{{m, o}, {o, m}} {
			got, ok := dir[0].FirstDiff(dir[1])
			brute, bok := firstDiffBrute(dir[0], dir[1])
			if !ok || got != c.want || !bok || brute != c.want {
				t.Fatalf("%s: FirstDiff = %#x, %v; brute force %#x, %v; want %#x",
					c.name, got, ok, brute, bok, c.want)
			}
		}
	}
	m, o := base(), base()
	m.Map(0x1000, pageSize)
	if addr, ok := m.FirstDiff(o); ok {
		t.Fatalf("FirstDiff of equal memories (one with an extra zero page) = %#x", addr)
	}
}
