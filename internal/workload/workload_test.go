package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"testing"

	"sre/internal/core"
	"sre/internal/mapping"
	"sre/internal/nn"
	"sre/internal/quant"
	"sre/internal/xrand"
)

func TestAllSpecsParse(t *testing.T) {
	for _, s := range Specs() {
		net, err := s.Network()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		out, err := net.Validate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		want := 10
		if s.Large {
			want = 1000
		}
		if out[len(out)-1] != want {
			t.Fatalf("%s output shape %v", s.Name, out)
		}
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := SpecByName("VGG-16"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("accepted unknown network")
	}
}

func TestTable2IndexBits(t *testing.T) {
	// §6: 5,5,5,5,3,3 bits in Table 2 order.
	want := []int{5, 5, 5, 5, 3, 3}
	for i, s := range Specs() {
		if s.IndexBits != want[i] {
			t.Fatalf("%s index bits = %d, want %d", s.Name, s.IndexBits, want[i])
		}
	}
}

func TestParameterCounts(t *testing.T) {
	// Sanity-pin the topologies to the well-known parameter counts.
	want := map[string][2]int64{ // name → {min, max} weights
		"MNIST":     {420_000, 440_000},
		"CaffeNet":  {58_000_000, 64_000_000},
		"VGG-16":    {130_000_000, 145_000_000},
		"GoogLeNet": {5_500_000, 7_500_000},
		"ResNet-50": {23_000_000, 27_000_000},
	}
	for _, s := range Specs() {
		bounds, ok := want[s.Name]
		if !ok {
			continue
		}
		net, err := s.Network()
		if err != nil {
			t.Fatal(err)
		}
		wc := net.WeightCount()
		if wc < bounds[0] || wc > bounds[1] {
			t.Fatalf("%s weight count %d outside [%d, %d]", s.Name, wc, bounds[0], bounds[1])
		}
	}
}

// matrixInfos returns the spec's matrix-layer infos, aligned
// one-to-one with Build's layers.
func matrixInfos(t *testing.T, s Spec) []nn.LayerInfo {
	t.Helper()
	net, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	return net.MatrixLayerInfos()
}

func TestBuildSmallNetworkSparsities(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Layers) != 4 {
		t.Fatalf("MNIST has %d matrix layers", len(b.Layers))
	}
	// Every layer needs a structure and an activation source with the
	// right geometry.
	infos := matrixInfos(t, s)
	for i, l := range b.Layers {
		if l.Struct.Layout.Rows != infos[i].Rows {
			t.Fatalf("layer %s: structure rows %d != %d", l.Name, l.Struct.Layout.Rows, infos[i].Rows)
		}
		if l.Acts.Windows() != infos[i].Windows {
			t.Fatalf("layer %s: windows mismatch", l.Name)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	s, _ := SpecByName("CIFAR-10")
	a, err := s.Build(SSL, quant.Default(), mapping.Default(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Layers {
		ra := a.Layers[i].Struct.CompressionRatio(2, 0) // ReCom as a digest
		rb := b.Layers[i].Struct.CompressionRatio(2, 0)
		if ra != rb {
			t.Fatal("builds differ across runs with the same seed")
		}
	}
	rows := matrixInfos(t, s)[0].Rows
	codesA := make([]uint32, rows)
	codesB := make([]uint32, rows)
	a.Layers[0].Acts.WindowCodes(3, codesA)
	b.Layers[0].Acts.WindowCodes(3, codesB)
	for i := range codesA {
		if codesA[i] != codesB[i] {
			t.Fatal("activation streams differ across runs")
		}
	}
}

func TestSyntheticActsSparsity(t *testing.T) {
	acts := &SyntheticActs{Rows: 5000, NWindows: 4, Sparsity: 0.4, Octaves: 4, ABits: 16, Seed: 3}
	codes := make([]uint32, 5000)
	acts.WindowCodes(0, codes)
	zeros := 0
	for _, c := range codes {
		if c == 0 {
			zeros++
		}
	}
	got := float64(zeros) / 5000
	if math.Abs(got-0.4) > 0.03 {
		t.Fatalf("activation sparsity %v, want ~0.4", got)
	}
}

func TestOctavesSkewSliceDensity(t *testing.T) {
	p := quant.Default()
	mk := func(octaves float64) float64 {
		acts := &SyntheticActs{Rows: 4000, NWindows: 8, Sparsity: 0.4, Octaves: octaves, ABits: 16, Seed: 5}
		return MeanSliceDensity(acts, 4000, p, 8)
	}
	d0, d8 := mk(0), mk(8)
	if d8 >= d0 {
		t.Fatalf("more octaves must lower slice density: %v vs %v", d0, d8)
	}
	if d0 <= 0 || d0 >= 0.5 {
		t.Fatalf("zero-octave density %v implausible", d0)
	}
}

func TestGSLVsSSLStructure(t *testing.T) {
	s, _ := SpecByName("CIFAR-10")
	p, g := quant.Default(), mapping.Default()
	ssl, err := s.Build(SSL, p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	gsl, err := s.Build(GSL, p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// SSL must yield a higher ORC compression ratio than GSL at the same
	// order of total sparsity (the Fig. 17 vs Fig. 23 contrast).
	var sslRatio, gslRatio float64
	for i := range ssl.Layers {
		sslRatio += ssl.Layers[i].Struct.CompressionRatio(3, 0) // ORC
		gslRatio += gsl.Layers[i].Struct.CompressionRatio(3, 0)
	}
	if sslRatio <= gslRatio {
		t.Fatalf("SSL ORC ratio %v should beat GSL %v", sslRatio, gslRatio)
	}
}

func TestISAACInputs(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	in := b.ISAACInputs()
	if len(in) != len(b.Layers) {
		t.Fatal("ISAAC inputs length mismatch")
	}
	for i := range in {
		if in[i].Windows != b.Layers[i].Acts.Windows() {
			t.Fatal("window mismatch")
		}
	}
}

func TestNoPruneKeepsWeightsDense(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(NoPrune, quant.Default(), mapping.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp := b.WeightSparsityBuilt(); sp > 0.01 {
		t.Fatalf("dense build has sparsity %v", sp)
	}
}

func TestWeightSparsityBuiltTracksTarget(t *testing.T) {
	for _, name := range []string{"MNIST", "CIFAR-10"} {
		s, _ := SpecByName(name)
		b, err := s.Build(SSL, quant.Default(), mapping.Default(), 4)
		if err != nil {
			t.Fatal(err)
		}
		got := b.WeightSparsityBuilt()
		if math.Abs(got-s.WeightSparsity) > 0.08 {
			t.Fatalf("%s built sparsity %.3f vs Table 2 %.3f", name, got, s.WeightSparsity)
		}
	}
}

func TestSNrramCellsPositive(t *testing.T) {
	s, _ := SpecByName("CIFAR-10")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range b.Stats {
		total += st.WeightTotal
	}
	cells := b.SNrramCells()
	if cells <= 0 || cells > total*int64(quant.Default().CellsPerWeight()) {
		t.Fatalf("SNrram cells %d out of range", cells)
	}
}

func TestBuildOCCStructuresAligned(t *testing.T) {
	s, _ := SpecByName("MNIST")
	p, g := quant.Default(), mapping.Default()
	b, err := s.Build(SSL, p, g, 6)
	if err != nil {
		t.Fatal(err)
	}
	occs, err := s.BuildOCCStructures(SSL, p, g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(occs) != len(b.Layers) {
		t.Fatalf("OCC structures %d vs layers %d", len(occs), len(b.Layers))
	}
	for i := range occs {
		if occs[i].Layout.Rows != b.Layers[i].Struct.Layout.Rows {
			t.Fatalf("layer %d geometry mismatch", i)
		}
		// Same weights → OCC's compressed cells can never exceed totals.
		if occs[i].CompressedCells() > occs[i].Layout.TotalCells() {
			t.Fatal("OCC kept more cells than exist")
		}
	}
}

func TestOutputBitsSet(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 7)
	if err != nil {
		t.Fatal(err)
	}
	infos := matrixInfos(t, s)
	for i, l := range b.Layers {
		want := int64(infos[i].Windows) * int64(infos[i].Cols) * 16
		if l.OutputBits != want {
			t.Fatalf("layer %s OutputBits %d, want %d", l.Name, l.OutputBits, want)
		}
	}
}

func TestMeanSliceDensityEdges(t *testing.T) {
	p := quant.Default()
	empty := &SyntheticActs{Rows: 0, NWindows: 1, ABits: 16, Seed: 1}
	if d := MeanSliceDensity(empty, 0, p, 1); d != 0 {
		t.Fatalf("empty density %v", d)
	}
	allZero := &SyntheticActs{Rows: 100, NWindows: 3, Sparsity: 1, Octaves: 2, ABits: 16, Seed: 2}
	if d := MeanSliceDensity(allZero, 100, p, 0); d != 0 {
		t.Fatalf("all-zero density %v", d)
	}
}

// referenceWindowCodes is the defining arithmetic of
// SyntheticActs.WindowCodes, kept verbatim from before the fast path: a
// Pow and a Log per channel, an Exp per non-zero row.
func referenceWindowCodes(s *SyntheticActs, w int, dst []uint32) {
	if len(dst) != s.Rows {
		panic(fmt.Sprintf("workload: window wants %d rows, got %d", s.Rows, len(dst)))
	}
	r := xrand.New(s.Seed + uint64(w)*0x9e3779b97f4a7c15)
	globalMax := float64(uint64(1)<<uint(s.ABits) - 1)
	windowMax := globalMax * math.Pow(2, -s.Octaves*r.Float64())
	if windowMax < 1 {
		windowMax = 1
	}
	rpc := s.RowsPerChan
	if rpc <= 0 {
		rpc = 1
	}
	chanMax := windowMax
	lnMax := math.Log(chanMax)
	for i := range dst {
		if i%rpc == 0 && s.ChanOctaves > 0 {
			chanMax = windowMax * math.Pow(2, -s.ChanOctaves*r.Float64())
			if chanMax < 1 {
				chanMax = 1
			}
			lnMax = math.Log(chanMax)
		}
		if r.Bernoulli(s.Sparsity) {
			dst[i] = 0
			continue
		}
		v := math.Exp(lnMax * r.Float64()) // log-uniform in [1, chanMax]
		if v > chanMax {
			v = chanMax
		}
		dst[i] = uint32(v)
	}
}

// testTols are the tolerances windowCodes must be exact under: the
// production margin; a coarse one, under which many rows fail the fast
// path's test and their channel finishes on the exact arithmetic; and
// +Inf, which sends every channel there from its first row.
var testTols = []float64{exactTol, 1.0 / 1024, math.Inf(1)}

// checkWindow compares window w of src against the reference under
// every test tolerance.
func checkWindow(t *testing.T, src *SyntheticActs, w int) {
	t.Helper()
	want := make([]uint32, src.Rows)
	got := make([]uint32, src.Rows)
	referenceWindowCodes(src, w, want)
	for _, tol := range testTols {
		src.windowCodes(w, got, tol)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v window %d, tol %g: row %d is %d, want %d", *src, w, tol, i, got[i], want[i])
			}
		}
	}
}

// table2Layers returns every matrix layer of s named and sourced as
// Build names and sources it for 16-bit activations and the given build
// seed, without generating weights.
func table2Layers(tb testing.TB, s Spec, seed uint64) []core.Layer {
	tb.Helper()
	net, err := s.Network()
	if err != nil {
		tb.Fatal(err)
	}
	root := s.streamRoot(seed)
	var layers []core.Layer
	for _, li := range net.MatrixLayerInfos() {
		layers = append(layers, core.Layer{Name: li.Path, Acts: s.syntheticActs(root, li, quant.Default().ABits)})
	}
	return layers
}

func TestWindowCodesMatchesReferenceTable2(t *testing.T) {
	for _, s := range Specs() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 2, 97} {
				for _, l := range table2Layers(t, s, seed) {
					src := l.Acts.(*SyntheticActs)
					sampled := core.SampledWindows(src.NWindows, 40)
					for wi := 0; wi < sampled; wi++ {
						checkWindow(t, src, wi*src.NWindows/sampled)
					}
				}
			}
		})
	}
}

// randomActs draws a SyntheticActs over the whole parameter space,
// edges included: 1- to 32-bit codes (every width quant.Validate
// allows, so tableExp is checked up to the top of its range), all-zero
// and zero-free windows, no channel spread, RowsPerChan ≤ 0 or beyond
// Rows, and Octaves large enough that windowMax clamps to 1.
func randomActs(r *xrand.RNG) *SyntheticActs {
	s := &SyntheticActs{
		Rows:        r.Intn(160),
		NWindows:    1 << 20,
		RowsPerChan: r.Intn(24) - 2,
		ABits:       1 + r.Intn(32),
		Seed:        r.Uint64(),
	}
	switch r.Intn(4) {
	case 0:
		s.Sparsity = 0
	case 1:
		s.Sparsity = 1
	default:
		s.Sparsity = r.Float64()
	}
	switch r.Intn(4) {
	case 0:
		s.Octaves = 0
	case 1:
		s.Octaves = 16 + 48*r.Float64()
	default:
		s.Octaves = 16 * r.Float64()
	}
	switch r.Intn(3) {
	case 0:
		s.ChanOctaves = 0
	default:
		s.ChanOctaves = 16 * r.Float64()
	}
	return s
}

func TestWindowCodesMatchesReferenceRandom(t *testing.T) {
	r := xrand.New(14)
	for n := 0; n < 20000; n++ {
		src := randomActs(r)
		checkWindow(t, src, r.Intn(src.NWindows))
	}
}

// FuzzWindowCodes searches for a window on which the fast path's error
// bound fails to keep it exact.
func FuzzWindowCodes(f *testing.F) {
	f.Add(uint64(1), uint32(0), uint16(64), int16(1), uint8(16), 0.37, 9.0, 3.0)
	f.Add(uint64(2), uint32(7), uint16(576), int16(9), uint8(16), 0.46, 15.0, 12.0)
	f.Add(uint64(3), uint32(1), uint16(4096), int16(0), uint8(1), 0.0, 0.0, 0.0)
	f.Add(uint64(4), uint32(3), uint16(300), int16(-3), uint8(8), 1.0, 40.0, 0.0)
	f.Add(uint64(5), uint32(11), uint16(1152), int16(9), uint8(31), 0.41, 11.0, 7.0)
	f.Fuzz(func(t *testing.T, seed uint64, w uint32, rows uint16, rpc int16, abits uint8, sparsity, octaves, chanOctaves float64) {
		for _, x := range []float64{sparsity, octaves, chanOctaves} {
			if !(x >= 0 && x <= math.MaxFloat64) {
				t.Skip("sparsity and octaves must be finite and non-negative")
			}
		}
		checkWindow(t, &SyntheticActs{
			Rows:        int(rows % 4097),
			NWindows:    int(w) + 1,
			Sparsity:    sparsity,
			Octaves:     octaves,
			ChanOctaves: chanOctaves,
			RowsPerChan: int(rpc),
			ABits:       1 + int(abits%32),
			Seed:        seed,
		}, int(w))
	})
}

// bigExp returns e^x to 128 bits by its Taylor series, every term of
// which is positive for x ≥ 0, so no precision is lost to cancellation.
func bigExp(x float64) *big.Float {
	const prec = 128
	bx := new(big.Float).SetPrec(prec).SetFloat64(x)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := int64(1); term.Sign() > 0 && term.MantExp(nil) > sum.MantExp(nil)-prec; k++ {
		term.Mul(term, bx)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(k))
		sum.Add(sum, term)
	}
	return sum
}

// TestExp2FracCorrectlyRounded checks tableExp's table against 2^(j/32)
// computed to 256 bits: each entry must be that value rounded to
// nearest, as expTableErr's derivation assumes.
func TestExp2FracCorrectlyRounded(t *testing.T) {
	const prec = 256
	root := new(big.Float).SetPrec(prec).SetInt64(2)
	for i := 0; i < 5; i++ {
		root.Sqrt(root)
	}
	v := new(big.Float).SetPrec(prec).SetInt64(1)
	for j, bits := range exp2Frac {
		if want, _ := v.Float64(); math.Float64bits(want) != bits {
			t.Errorf("exp2Frac[%d] = %#016x, want %#016x (%x)", j, bits, math.Float64bits(want), want)
		}
		v.Mul(v, root)
	}
}

// TestTableExpWithinBound checks tableExp against e^x over its whole
// range [0, expTableMax]: at every table knot k·ln2/32, every midpoint
// between knots (where the reduction switches k) and two ulps either
// side against a 128-bit reference, which must hold it to expTableErr; and on a dense grid and
// at random points against math.Exp, which itself errs by under one
// ulp, so there the allowance is expTableErr + 2⁻⁵².
func TestTableExpWithinBound(t *testing.T) {
	relBig := func(x float64) float64 {
		want := bigExp(x)
		diff := new(big.Float).SetPrec(128).SetFloat64(tableExp(x))
		diff.Sub(diff, want).Quo(diff, want)
		rel, _ := diff.Float64()
		return math.Abs(rel)
	}
	worst := 0.0
	check := func(x, rel, bound float64) {
		t.Helper()
		worst = max(worst, rel)
		if !(rel <= bound) {
			t.Fatalf("tableExp(%v) = %v errs by %.3g relative, over the %.3g allowed", x, tableExp(x), rel, bound)
		}
	}
	for k := 0; k <= 1024; k++ {
		knot := float64(k) * (math.Ln2 / 32)
		for _, x := range []float64{knot, knot + math.Ln2/64, knot - math.Ln2/64} {
			for d := -2; d <= 2; d++ {
				y := math.Float64frombits(uint64(int64(math.Float64bits(x)) + int64(d)))
				if y >= 0 && y <= expTableMax {
					check(y, relBig(y), expTableErr)
				}
			}
		}
	}
	relExp := func(x float64) float64 {
		want := math.Exp(x)
		return math.Abs(tableExp(x)-want) / want
	}
	const n = 1 << 20
	for i := 0; i <= n; i++ {
		x := expTableMax * float64(i) / n
		check(x, relExp(x), expTableErr+0x1p-52)
	}
	r := xrand.New(25)
	for i := 0; i < 1<<18; i++ {
		x := expTableMax * r.Float64()
		check(x, relExp(x), expTableErr+0x1p-52)
	}
	check(expTableMax, relExp(expTableMax), expTableErr+0x1p-52)
	t.Logf("worst relative error seen: %.3g (δ = %.3g)", worst, expTableErr)
}

// TestZeroBelowMatchesBernoulli checks the integer zero test against
// xrand's Bernoulli on the same draws, at the probabilities whose
// thresholds are edges, their float64 neighbours and invalid ones, and
// at the draws on either side of each threshold.
func TestZeroBelowMatchesBernoulli(t *testing.T) {
	var ps []float64
	for _, p := range []float64{0, 0x1p-53, 0.37, 0.5, 1 - 0x1p-53, 1} {
		ps = append(ps, p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)))
	}
	ps = append(ps, -0.1, 1.5, math.NaN())
	for _, p := range ps {
		zb := zeroBelow(p)
		a, b := xrand.New(7), xrand.New(7)
		for i := 0; i < 4096; i++ {
			if want, got := a.Bernoulli(p), b.Uint64()>>11 < zb; got != want {
				t.Fatalf("p = %v (%#x), draw %d: integer test says %v, Bernoulli %v", p, math.Float64bits(p), i, got, want)
			}
		}
		for _, k := range []uint64{0, 1, zb - 1, zb, zb + 1, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			if want, got := unit(k<<11) < p, k < zb; got != want {
				t.Fatalf("p = %v (%#x), draw %#x: integer test says %v, Float64 < p %v", p, math.Float64bits(p), k<<11, got, want)
			}
		}
	}
}

// codeDigest is FNV-1a 64 over every code of every source at 12
// sampled windows, the shape the daemon serves.
func codeDigest(srcs []core.ActivationSource) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, src := range srcs {
		windows := src.Windows()
		sampled := core.SampledWindows(windows, 12)
		codes := make([]uint32, src.(*SyntheticActs).Rows)
		for wi := 0; wi < sampled; wi++ {
			src.WindowCodes(wi*windows/sampled, codes)
			buf = buf[:0]
			for _, c := range codes {
				buf = binary.LittleEndian.AppendUint32(buf, c)
			}
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// TestWindowCodesDigests pins the synthesized codes themselves, for
// build seed 1's sources and variant seed 97's. The digests were taken
// from the generator that referenceWindowCodes preserves, so they catch
// a change of value that path-against-path tests would not.
func TestWindowCodesDigests(t *testing.T) {
	want := map[string][2]uint64{
		"MNIST":     {0x910dd41c59202c5a, 0xb4174ebd89d168f5},
		"CIFAR-10":  {0x026678022c226497, 0xcea1f5c5150fde80},
		"CaffeNet":  {0xb9796e8769014c37, 0x44c9c08614c26a96},
		"VGG-16":    {0x399e7e35259d31d1, 0xfacd5633a0565559},
		"GoogLeNet": {0x383f8e9363e8c43f, 0x9352dd2761879cf0},
		"ResNet-50": {0x528475c3061e29a0, 0x7fe4990ac46ce0cf},
	}
	for _, s := range Specs() {
		layers := table2Layers(t, s, 1)
		own := make([]core.ActivationSource, len(layers))
		for i := range layers {
			own[i] = layers[i].Acts
		}
		got := [2]uint64{codeDigest(own), codeDigest(s.VariantSources(layers, 97))}
		if got != want[s.Name] {
			t.Errorf("%s: digests (build seed 1, act seed 97) = %#016x, %#016x; want %#016x, %#016x",
				s.Name, got[0], got[1], want[s.Name][0], want[s.Name][1])
		}
	}
}

// BenchmarkWindowCodes times one fresh act_seed's synthesis in the
// served shape: every matrix layer of a Table 2 network at 12 sampled
// windows. ns/code is the figure to compare across changes.
func BenchmarkWindowCodes(b *testing.B) {
	for _, s := range Specs() {
		b.Run(s.Name, func(b *testing.B) {
			layers := table2Layers(b, s, 1)
			var codes, maxRows int
			for _, l := range layers {
				rows := l.Acts.(*SyntheticActs).Rows
				codes += rows * core.SampledWindows(l.Acts.Windows(), 12)
				maxRows = max(maxRows, rows)
			}
			buf := make([]uint32, maxRows)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, l := range layers {
					windows := l.Acts.Windows()
					sampled := core.SampledWindows(windows, 12)
					for wi := 0; wi < sampled; wi++ {
						l.Acts.WindowCodes(wi*windows/sampled, buf[:l.Acts.(*SyntheticActs).Rows])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(codes), "ns/code")
		})
	}
}
