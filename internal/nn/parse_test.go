package nn

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestParseLeNet(t *testing.T) {
	// Table 2 MNIST row: conv5x20-pool-conv5x50-pool-500-10 on 1×28×28.
	net, err := Parse("LeNet", Shape{1, 28, 28}, "conv5x20-pool-conv5x50-pool-500-10")
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 10 {
		t.Fatalf("LeNet output shape %v", out)
	}
	infos := net.MatrixLayerInfos()
	if len(infos) != 4 {
		t.Fatalf("LeNet matrix layers = %d, want 4", len(infos))
	}
	// conv5x20 on 28 → 24; pool → 12; conv5x50 → 8; pool → 4; fc500 in=800.
	if infos[1].Rows != 20*25 || infos[1].Windows != 64 {
		t.Fatalf("conv5x50 geometry: rows=%d windows=%d", infos[1].Rows, infos[1].Windows)
	}
	if infos[2].Rows != 50*4*4 || infos[2].Cols != 500 {
		t.Fatalf("fc500 geometry: %d x %d", infos[2].Rows, infos[2].Cols)
	}
}

func TestParseConvSuffixes(t *testing.T) {
	net, err := Parse("stem", Shape{3, 224, 224}, "conv7x64s2p3-pool3s2-10")
	if err != nil {
		t.Fatal(err)
	}
	info := net.MatrixLayerInfos()[0]
	if info.K != 7 || info.Stride != 2 || info.Pad != 3 {
		t.Fatalf("conv suffixes parsed wrong: %+v", info)
	}
	// 224 →(7/2/3) 112 →(pool3s2, ceil) 56.
	if info.Windows != 112*112 {
		t.Fatalf("stem windows = %d", info.Windows)
	}
}

func TestParseInceptionToken(t *testing.T) {
	net, err := Parse("g", Shape{192, 28, 28}, "inception(3a:64,96,128,16,32,32)-10")
	if err != nil {
		t.Fatal(err)
	}
	infos := net.MatrixLayerInfos()
	// 6 convs + final fc.
	if len(infos) != 7 {
		t.Fatalf("matrix layers = %d", len(infos))
	}
	if !strings.Contains(infos[0].Path, "inception(3a)") {
		t.Fatalf("path = %q", infos[0].Path)
	}
	// Output channels 64+128+32+32 = 256.
	fc := infos[6]
	if fc.Rows != 256*28*28 {
		t.Fatalf("fc rows = %d", fc.Rows)
	}
}

func TestParseResidualGroup(t *testing.T) {
	net, err := Parse("r", Shape{64, 56, 56},
		"[conv1x64-conv3x64-conv1x256]x3-[conv1x128s2-conv3x128-conv1x512]x4-gap-10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// Stage 1: 3 blocks; block 0 has projection (64→256), blocks 1-2 identity.
	res0 := net.Layers[0].(*Residual)
	res1 := net.Layers[1].(*Residual)
	if res0.Proj == nil || res1.Proj != nil {
		t.Fatal("projection placement wrong in stage 1")
	}
	// Stage 2 block 0 downsamples 56→28.
	res3 := net.Layers[3].(*Residual)
	out := res3.OutShape(Shape{256, 56, 56})
	if out[0] != 512 || out[1] != 28 {
		t.Fatalf("stage-2 first block out %v", out)
	}
	// Stage 2 blocks 1..3 keep 28 and have no projection.
	res4 := net.Layers[4].(*Residual)
	if res4.Proj != nil || res4.C2.Stride != 1 {
		t.Fatal("stride must apply to first block only")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"convx5",                      // missing kernel
		"conv3",                       // missing filters
		"conv3x",                      // missing count
		"bogus",                       // unknown token
		"conv3x4q2",                   // bad suffix
		"[conv1x4-conv3x4-conv1x8]",   // missing repeat
		"[conv3x4-conv3x4-conv1x8]x2", // not a 1-3-1 bottleneck
		"inception(1,2,3)",            // wrong arity
		"0",                           // non-positive fc
		"conv3x4-(",                   // unbalanced
		"",                            // empty
	}
	for _, topo := range cases {
		if _, err := Parse("bad", Shape{3, 32, 32}, topo); err == nil {
			t.Errorf("Parse accepted %q", topo)
		}
	}
}

func TestParseShapeMismatchError(t *testing.T) {
	// Kernel larger than input must surface as an error, not a panic.
	if _, err := Parse("big", Shape{1, 4, 4}, "conv5x8-10"); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestParseTrailingReLUDropped(t *testing.T) {
	net, err := Parse("t", Shape{1, 6, 6}, "conv3x2-4")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Layers[len(net.Layers)-1].(ReLU); ok {
		t.Fatal("final layer must not be ReLU (logits)")
	}
}

func TestParseVGG16Topology(t *testing.T) {
	// The Table 2 VGG-16 string with explicit same-padding.
	topo := "conv3x64p1-conv3x64p1-pool-conv3x128p1-conv3x128p1-pool-" +
		"conv3x256p1-conv3x256p1-conv3x256p1-pool-" +
		"conv3x512p1-conv3x512p1-conv3x512p1-pool-" +
		"conv3x512p1-conv3x512p1-conv3x512p1-pool-4096-4096-1000"
	net, err := Parse("VGG-16", Shape{3, 224, 224}, topo)
	if err != nil {
		t.Fatal(err)
	}
	infos := net.MatrixLayerInfos()
	if len(infos) != 16 {
		t.Fatalf("VGG-16 matrix layers = %d, want 16", len(infos))
	}
	// First FC sees 512×7×7 = 25088 inputs.
	if infos[13].Rows != 25088 {
		t.Fatalf("fc1 rows = %d", infos[13].Rows)
	}
	// Total parameter count ≈ 138M for VGG-16.
	wc := net.WeightCount()
	if wc < 130_000_000 || wc > 145_000_000 {
		t.Fatalf("VGG-16 weight count = %d", wc)
	}
}

func TestParseAvgPoolToken(t *testing.T) {
	net, err := Parse("a", Shape{2, 8, 8}, "avgpool2s2-4")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := net.Validate()
	if out[0] != 4 {
		t.Fatalf("out %v", out)
	}
}

func TestParseGroupedConvToken(t *testing.T) {
	net, err := Parse("g", Shape{4, 8, 8}, "conv3x8g2p1-4")
	if err != nil {
		t.Fatal(err)
	}
	gc, ok := net.Layers[0].(*GroupedConv)
	if !ok {
		t.Fatalf("first layer %T, want *GroupedConv", net.Layers[0])
	}
	if gc.Name() != "conv3x8g2p1" {
		t.Fatalf("name %q", gc.Name())
	}
}

func TestParseSizeLimits(t *testing.T) {
	cases := []string{
		"8880000000",                     // FC allocation bomb
		"conv3x9999999",                  // filter bomb
		"conv65x4",                       // kernel over limit
		"[conv1x4-conv3x4-conv1x8]x9999", // repeat bomb
		"conv3x4s0",                      // zero stride
	}
	for _, topo := range cases {
		if _, err := Parse("bomb", Shape{3, 64, 64}, topo); err == nil {
			t.Errorf("accepted %q", topo)
		}
	}
}

// TestShapesMatchesParse: the weightless walk yields Parse's matrix
// layer infos, Layer aside, rejects what Parse rejects, and allocates
// nothing in proportion to the weights.
func TestShapesMatchesParse(t *testing.T) {
	for _, c := range []struct {
		in   Shape
		topo string
	}{
		{Shape{1, 28, 28}, "conv5x20-pool-conv5x50-pool-500-10"},
		{Shape{3, 227, 227}, "conv11x96s4-pool3s2-conv5x256g2p2-pool3s2-conv3x384p1-pool3s2-4096-1000"},
		{Shape{3, 224, 224}, "conv7x64s2p3-pool3s2-inception(3a:64,96,128,16,32,32)-gap-1000"},
		{Shape{3, 224, 224}, "conv7x64s2p3-pool3s2p1-[conv1x64-conv3x64-conv1x256]x3-[conv1x128s2-conv3x128-conv1x512]x2-gap-1000"},
	} {
		net, err := Parse("n", c.in, c.topo)
		if err != nil {
			t.Fatal(err)
		}
		want := net.MatrixLayerInfos()
		got, err := Shapes("n", c.in, c.topo)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d infos, Parse has %d", c.topo, len(got), len(want))
		}
		for i := range want {
			if got[i].Layer != nil {
				t.Fatalf("%s: info %d carries a layer", c.topo, i)
			}
			w := want[i]
			w.Layer = nil
			if fmt.Sprint(got[i]) != fmt.Sprint(w) {
				t.Fatalf("%s: info %d is %+v, Parse has %+v", c.topo, i, got[i], w)
			}
		}
	}
	vgg := "conv3x64p1-conv3x64p1-pool-conv3x128p1-conv3x128p1-pool-" +
		"conv3x256p1-conv3x256p1-conv3x256p1-pool-conv3x512p1-conv3x512p1-conv3x512p1-pool-" +
		"conv3x512p1-conv3x512p1-conv3x512p1-pool-4096-4096-1000"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Shapes("VGG-16", Shape{3, 224, 224}, vgg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("walking VGG-16's 138M-weight topology allocated %d bytes", n)
	}
	if _, err := Shapes("bomb", Shape{3, 64, 64}, "8880000000"); err == nil {
		t.Fatal("Shapes accepted a token Parse rejects")
	}
}

// TestParseLayerLimit: a topology that expands to more layers than a
// real network, in tokens, repeats or groups, fails before its layers
// are built.
func TestParseLayerLimit(t *testing.T) {
	for _, topo := range []string{
		strings.Repeat("pool-", maxLayers) + "10",
		strings.Repeat("[conv1x1-conv3x1-conv1x1]x512-", maxLayers/(3*512)+1) + "10",
		"conv1x32768-conv1x32768g32768",
	} {
		if _, err := Shapes("bomb", Shape{1, 1, 1}, topo); err == nil || !strings.Contains(err.Error(), "layer") {
			t.Errorf("%.40s…: err %v, want the layer limit", topo, err)
		}
	}
	if _, err := Shapes("deep", Shape{1, 1, 1}, strings.Repeat("1-", maxLayers/2-1)+"1"); err != nil {
		t.Fatalf("a topology within the limit failed: %v", err)
	}
}
