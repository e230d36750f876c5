package asm_test

import (
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
)

// assembleAllocBudget bounds the allocations of one Assemble call on a
// generated program: the records, the symbol table, the two images, the
// line table and the Program — a fixed set per program whatever its
// length (12 to 14 measured over every shape at 10 and 200 items; the
// budget leaves room for map and slice growth policies that differ
// between Go releases).
const assembleAllocBudget = 20

// TestAssembleAllocBound: assembly allocates per program, not per line.
// Programs of every shape, short and long, stay within one fixed
// budget.
func TestAssembleAllocBound(t *testing.T) {
	for _, shape := range progen.Shapes() {
		for _, items := range []int{10, 200} {
			p := progen.ShapeParams(shape, 1)
			p.Items = items
			src := progen.Generate(p)
			if _, err := asm.Assemble(src); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := asm.Assemble(src); err != nil {
					panic(err)
				}
			})
			t.Logf("%s, %d items (%d bytes): %.0f allocations", shape, items, len(src), allocs)
			if allocs > assembleAllocBudget {
				t.Errorf("%s, %d items: Assemble allocates %.0f objects, budget %d",
					shape, items, allocs, assembleAllocBudget)
			}
		}
	}
}
