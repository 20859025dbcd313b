//go:build amd64 && !amd64.v3

// The golden bits are those of the amd64 baseline build (see
// internal/analytic's boundary golden): other targets may fuse
// multiply-adds, which moves the last bits.

package lattice_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/fft"
)

var update = flag.Bool("update", false, "rewrite this FFT kernel's testdata/fast_bits_*.golden from this tree")

// fastBits lists math.Float64bits of every fast price the golden file pins,
// one "model kind params-index T bits" line each ("err" when the solve or the
// model fails): PriceFast and PriceFastPut on both trees and bsm's PriceFast,
// over parityParams x parityT.
func fastBits() string {
	var b strings.Builder
	line := func(model, kind string, i, T int, v float64, err error) {
		bits := "err"
		if err == nil {
			bits = fmt.Sprintf("%016x", math.Float64bits(v))
		}
		fmt.Fprintf(&b, "%s %s %d %d %s\n", model, kind, i, T, bits)
	}
	for i, p := range parityParams {
		for _, T := range parityT {
			for _, tree := range trees {
				m, err := tree.new(p, T)
				if err != nil {
					line(tree.name, "model", i, T, 0, err)
					continue
				}
				v, err := m.PriceFast()
				line(tree.name, "call", i, T, v, err)
				v, err = m.PriceFastPut()
				line(tree.name, "put", i, T, v, err)
			}
			m, err := bsm.New(p, T, 0)
			if err != nil {
				line("bsm", "model", i, T, 0, err)
				continue
			}
			v, err := m.PriceFast()
			line("bsm", "put", i, T, v, err)
		}
	}
	return b.String()
}

// TestFastPriceGolden pins the bits of the fast prices, so a refactor of the
// engine or of the exercise tables that claims to keep prices bitwise is
// checked by the suite. The FFT's last bits depend on its butterfly kernel,
// so each kernel has its own file (fft.KernelName). Both were recorded with
//
//	go test ./internal/lattice -run TestFastPriceGolden -update
//	go test -tags amop_purego ./internal/lattice -run TestFastPriceGolden -update
//
// on an amd64 machine with AVX2 and FMA (GOAMD64=v1), when
// fbstencil.DefaultBaseCase went from 32 to 64: the recursion then splits
// the grid into other trapezoids, whose FFT evolutions round differently.
// The bsm lines were recorded again when the BSM put moved onto the trees'
// exercise table, K - S*e^(i*ds), from K*(1 - e^(s0+i*ds)).
// Rerun -update only for a change that
// is meant to move prices, and say so where it is reviewed.
func TestFastPriceGolden(t *testing.T) {
	path := filepath.Join("testdata", "fast_bits_"+fft.KernelName()+".golden")
	got := fastBits()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		t.Skipf("no golden bits recorded for the %s FFT kernel", fft.KernelName())
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, %d computed", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
