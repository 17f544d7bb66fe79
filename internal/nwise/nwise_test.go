package nwise

import (
	"testing"
	"testing/quick"
)

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(-1, 2, 1); err == nil {
		t.Fatal("negative factors must error")
	}
	if _, err := Generate(4, 0, 1); err == nil {
		t.Fatal("zero strength must error")
	}
}

func TestGenerateZeroFactors(t *testing.T) {
	a, err := Generate(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || len(a.Rows[0]) != 0 {
		t.Fatalf("rows = %v", a.Rows)
	}
	if !a.Covers() {
		t.Fatal("empty array must cover")
	}
}

func TestGenerateSmallIsCartesian(t *testing.T) {
	a, err := Generate(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 {
		t.Fatalf("2 factors at strength 3: %d rows, want 4", len(a.Rows))
	}
	seen := map[[2]uint8]bool{}
	for _, r := range a.Rows {
		seen[[2]uint8{r[0], r[1]}] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rows not distinct: %v", a.Rows)
	}
}

func TestGenerateEqualFactorsStrength(t *testing.T) {
	a, err := Generate(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 8 || !a.Covers() {
		t.Fatalf("3/3 array: %d rows covers=%v", len(a.Rows), a.Covers())
	}
}

func TestPairwiseCoverage(t *testing.T) {
	for _, n := range []int{3, 4, 6, 10, 15} {
		a, err := Generate(n, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Covers() {
			t.Fatalf("pairwise array over %d factors does not cover", n)
		}
	}
}

func TestThreeWiseCoverage(t *testing.T) {
	for _, n := range []int{4, 5, 8, 12} {
		a, err := Generate(n, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Covers() {
			t.Fatalf("3-wise array over %d factors does not cover", n)
		}
	}
}

func TestRowCountSubExponential(t *testing.T) {
	// The point of n-wise sampling: "the number of instances didn't grow
	// too much with the number of factors" (paper Fig. 4 discussion).
	a10, err := Generate(10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a10.Rows) > 16 {
		t.Fatalf("pairwise over 10 factors used %d rows, want <= 16", len(a10.Rows))
	}
	a12, err := Generate(12, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a12.Rows) > 50 {
		t.Fatalf("3-wise over 12 factors used %d rows, want << 4096", len(a12.Rows))
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Generate(8, 2, 42)
	b, _ := Generate(8, 2, 42)
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("not deterministic")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestCoversDetectsGap(t *testing.T) {
	a := Array{Factors: 3, Strength: 2, Rows: [][]uint8{
		{0, 0, 0}, {1, 1, 1},
	}}
	if a.Covers() {
		t.Fatal("two-row array cannot be pairwise complete")
	}
}

func TestCoversDetectsBadRowLength(t *testing.T) {
	a := Array{Factors: 3, Strength: 2, Rows: [][]uint8{{0, 0}}}
	if a.Covers() {
		t.Fatal("short row must fail verification")
	}
}

func TestCoverageQuick(t *testing.T) {
	// Property: generated arrays always satisfy the covering property for
	// random factor counts and strengths.
	f := func(seedRaw int64, nRaw, tRaw uint8) bool {
		n := 1 + int(nRaw%12)
		strength := 1 + int(tRaw%3)
		a, err := Generate(n, strength, seedRaw)
		if err != nil {
			return false
		}
		return a.Covers()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValuesAreBinary(t *testing.T) {
	a, err := Generate(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Rows {
		if len(r) != 9 {
			t.Fatalf("row length %d", len(r))
		}
		for _, v := range r {
			if v > 1 {
				t.Fatalf("non-binary value %d", v)
			}
		}
	}
}

func BenchmarkThreeWise12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(12, 3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCoversRejectsOutOfAlphabet(t *testing.T) {
	a := Array{Factors: 2, Strength: 2, Rows: [][]uint8{{0, 2}}}
	if a.Covers() {
		t.Fatal("out-of-alphabet value accepted")
	}
}
