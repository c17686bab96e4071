package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/workload"
)

// testKey builds the smallest Table 2 network's key.
func testKey(t *testing.T) Key {
	t.Helper()
	spec, err := workload.SpecByName("MNIST")
	if err != nil {
		t.Fatal(err)
	}
	return Key{Spec: spec, Prune: workload.SSL, Quant: quant.Default(),
		Geom: mapping.Default(), Seed: 1}
}

func buildKey(t *testing.T, k Key) *workload.Built {
	t.Helper()
	b, err := k.Spec.Build(k.Prune, k.Quant, k.Geom, k.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func snapshotBytes(t *testing.T, k Key, b *workload.Built) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Write(&buf, k, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Write reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestRoundTrip proves Decode(Write(b)) reproduces the built network's
// serialized form exactly: re-encoding the decoded network yields the
// same bytes.
func TestRoundTrip(t *testing.T) {
	k := testKey(t)
	b := buildKey(t, k)
	data := snapshotBytes(t, k, b)
	kk, back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if kk.Hash() != k.Hash() {
		t.Fatal("decoded key hash diverged")
	}
	if len(back.Layers) != len(b.Layers) || len(back.Stats) != len(b.Stats) {
		t.Fatalf("layer/stat counts diverged: %d/%d vs %d/%d",
			len(back.Layers), len(back.Stats), len(b.Layers), len(b.Stats))
	}
	for i := range b.Stats {
		if back.Stats[i] != b.Stats[i] {
			t.Fatalf("layer %d stats diverged", i)
		}
	}
	data2 := snapshotBytes(t, kk, back)
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding the decoded network produced different bytes")
	}
}

// TestDeterministicHashAndBytes proves two independent builds of the
// same key serialize to identical bytes (the golden property snapshot
// caching rests on), and that every build input perturbs the hash.
func TestDeterministicHashAndBytes(t *testing.T) {
	k := testKey(t)
	a := snapshotBytes(t, k, buildKey(t, k))
	b := snapshotBytes(t, k, buildKey(t, k))
	if !bytes.Equal(a, b) {
		t.Fatal("two builds of the same key serialized differently")
	}
	perturb := []func(*Key){
		func(k *Key) { k.Seed++ },
		func(k *Key) { k.Prune = workload.GSL },
		func(k *Key) { k.Quant.CellBits = 4 },
		func(k *Key) { k.Geom.SWL = 8 },
		func(k *Key) { k.Spec.WeightSparsity += 0.01 },
		func(k *Key) { k.Spec.Name += "x" },
		func(k *Key) { k.Spec.SliceCap = 2 },
	}
	base := k.Hash()
	for i, f := range perturb {
		kk := testKey(t)
		f(&kk)
		if kk.Hash() == base {
			t.Fatalf("perturbation %d did not change the content hash", i)
		}
	}
}

// TestCorruptionPaths proves every way a file can go bad yields the
// right named error and never a panic or a silently-wrong network.
func TestCorruptionPaths(t *testing.T) {
	k := testKey(t)
	b := buildKey(t, k)
	data := snapshotBytes(t, k, b)

	check := func(name string, mutate func([]byte) []byte, want error) error {
		t.Helper()
		img := mutate(append([]byte(nil), data...))
		_, _, err := Decode(img)
		if err == nil {
			t.Fatalf("%s: decoded successfully", name)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want errors.Is(%v)", name, err, want)
		}
		return err
	}

	check("truncated header", func(b []byte) []byte { return b[:headerSize-1] }, ErrCorrupt)
	check("truncated body", func(b []byte) []byte { return b[:len(b)-7] }, ErrCorrupt)
	check("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic)
	check("wrong version", func(b []byte) []byte { b[8] = 99; return b }, ErrVersion)
	check("flipped length", func(b []byte) []byte { b[12] ^= 1; return b }, ErrCorrupt)
	check("flipped header hash", func(b []byte) []byte { b[40] ^= 1; return b }, ErrHashMismatch)
	check("flipped meta byte", func(b []byte) []byte { b[headerSize+2] ^= 1; return b }, ErrCorrupt)
	check("flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrCorrupt)
	check("empty file", func(b []byte) []byte { return nil }, ErrCorrupt)

	// Re-sealed images: the meta is edited and the header's lengths and
	// checksums recomputed, with the key untouched so the content hash
	// still matches. Only the decoder's own checks stand between these
	// and a hostile allocation or a wrapped size sum.
	layer0 := func(edit func(*layerMeta)) func([]byte) []byte {
		return func(b []byte) []byte {
			return reseal(t, b, func(fm *fileMeta) { edit(&fm.Layers[0]) })
		}
	}
	check("plane words past 2^61", layer0(func(lm *layerMeta) { lm.PlaneWords = 1<<61 + 1 }), ErrCorrupt)
	check("negative plane words", layer0(func(lm *layerMeta) { lm.PlaneWords = -1 }), ErrCorrupt)
	check("dims of 2^40", layer0(func(lm *layerMeta) {
		lm.Rows, lm.Cols, lm.Acts.Rows = 1<<40, 1<<40, 1<<40
	}), ErrCorrupt)
	check("dims that disagree with the plane", layer0(func(lm *layerMeta) { lm.Cols++ }), ErrCorrupt)
	// Fields the key derives through the weightless topology walk. A
	// hostile width or octave spread would push windowCodes' exponent
	// past its fast path's range, rows per channel past Rows would leave
	// channel draws undefined, and 2^62 windows would size a DOF run's
	// scratch from the file.
	for _, c := range []struct {
		name string
		edit func(*layerMeta)
	}{
		{"activation width off the quantization", func(lm *layerMeta) { lm.Acts.ABits = 40 }},
		{"activation sparsity off the spec", func(lm *layerMeta) { lm.Acts.Sparsity = 0.5 }},
		{"negative activation octaves", func(lm *layerMeta) { lm.Acts.Octaves = -64 }},
		{"channel octaves off the spec", func(lm *layerMeta) { lm.Acts.ChanOctaves = 0 }},
		{"no rows per channel", func(lm *layerMeta) { lm.Acts.RowsPerChan = 0 }},
		{"more rows per channel than rows", func(lm *layerMeta) { lm.Acts.RowsPerChan = lm.Acts.Rows + 1 }},
		{"windows of 2^62", func(lm *layerMeta) { lm.Acts.NWindows = 1 << 62 }},
		{"another activation seed", func(lm *layerMeta) { lm.Acts.Seed++ }},
		{"a renamed layer", func(lm *layerMeta) { lm.Name += "x" }},
		{"another parallel group", func(lm *layerMeta) { lm.ParallelGroup = "g/" }},
		{"other output bits", func(lm *layerMeta) { lm.OutputBits *= 2 }},
	} {
		err := check(c.name, layer0(c.edit), ErrCorrupt)
		if !strings.Contains(err.Error(), "layer "+b.Layers[0].Name+":") {
			t.Errorf("%s: error %q does not name layer %s", c.name, err, b.Layers[0].Name)
		}
	}
	check("a dropped layer", func(b []byte) []byte {
		return reseal(t, b, func(fm *fileMeta) { fm.Layers = fm.Layers[1:] })
	}, ErrCorrupt)
	check("a duplicated layer", func(b []byte) []byte {
		return reseal(t, b, func(fm *fileMeta) { fm.Layers = append(fm.Layers, fm.Layers[0]) })
	}, ErrCorrupt)
	if _, _, err := Decode(reseal(t, data, func(*fileMeta) {})); err != nil {
		t.Fatalf("an unedited re-sealed image does not decode: %v", err)
	}
}

// TestLayerPayloadIsItsTwoPlanes pins the format-4 payload: layer by
// layer, the structure plane then the slice plane of the built
// network's own structure, 16·PlaneWords bytes per layer, and nothing
// else — no derived state rides along.
func TestLayerPayloadIsItsTwoPlanes(t *testing.T) {
	k := testKey(t)
	b := buildKey(t, k)
	img := snapshotBytes(t, k, b)
	h, err := decodeHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	var fm fileMeta
	if err := json.Unmarshal(img[headerSize:headerSize+int(h.metaLen)], &fm); err != nil {
		t.Fatal(err)
	}
	payload := img[headerSize+int(h.metaLen):]
	off := 0
	for i, lm := range fm.Layers {
		st := b.Layers[i].Struct
		if lm.PlaneWords != st.PlaneWords() {
			t.Fatalf("layer %s: meta PlaneWords %d, structure has %d", lm.Name, lm.PlaneWords, st.PlaneWords())
		}
		want := st.AppendSlicePlanes(st.AppendPlanes(nil))
		if len(want) != 2*lm.PlaneWords || off+16*lm.PlaneWords > len(payload) {
			t.Fatalf("layer %s: %d plane words, %d payload bytes left", lm.Name, len(want), len(payload)-off)
		}
		for j, wd := range want {
			if got := binary.LittleEndian.Uint64(payload[off+8*j:]); got != wd {
				t.Fatalf("layer %s: payload word %d is %#x, plane word is %#x", lm.Name, j, got, wd)
			}
		}
		off += 16 * lm.PlaneWords
	}
	if off != len(payload) {
		t.Fatalf("payload holds %d bytes beyond the layers' planes", len(payload)-off)
	}
}

// reseal returns img with its meta rewritten by edit and the header's
// meta length and checksum recomputed.
func reseal(t *testing.T, img []byte, edit func(*fileMeta)) []byte {
	t.Helper()
	h, err := decodeHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	var fm fileMeta
	if err := json.Unmarshal(img[headerSize:headerSize+int(h.metaLen)], &fm); err != nil {
		t.Fatal(err)
	}
	edit(&fm)
	meta, err := json.Marshal(fm)
	if err != nil {
		t.Fatal(err)
	}
	payload := img[headerSize+int(h.metaLen):]
	return append(append(sealHeader(h.hash, meta, payload), meta...), payload...)
}

// TestLoadOrBuild proves the cache protocol: miss builds and persists,
// hit loads, corruption surfaces loudly instead of rebuilding.
func TestLoadOrBuild(t *testing.T) {
	dir := t.TempDir()
	k := testKey(t)
	b1, hit, err := LoadOrBuild(dir, k, nil)
	if err != nil || hit {
		t.Fatalf("first load: hit=%v err=%v", hit, err)
	}
	path := filepath.Join(dir, k.FileName())
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("miss did not persist a snapshot: %v", err)
	}
	b2, hit, err := LoadOrBuild(dir, k, nil)
	if err != nil || !hit {
		t.Fatalf("second load: hit=%v err=%v", hit, err)
	}
	if len(b1.Layers) != len(b2.Layers) {
		t.Fatal("hit returned a different network shape")
	}
	// Corrupt the file: the next load must fail loudly, not rebuild.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 1
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadOrBuild(dir, k, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeHeader drives arbitrary bytes through the header decoder:
// any input must produce a named error or a sane header, never a panic.
func FuzzDecodeHeader(f *testing.F) {
	spec, err := workload.SpecByName("MNIST")
	if err != nil {
		f.Fatal(err)
	}
	k := Key{Spec: spec, Prune: workload.SSL, Quant: quant.Default(),
		Geom: mapping.Default(), Seed: 1}
	b, err := k.Spec.Build(k.Prune, k.Quant, k.Geom, k.Seed, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, k, b); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHeader(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if uint64(headerSize)+uint64(h.metaLen)+h.payloadLen != uint64(len(data)) {
			t.Fatal("accepted header does not cover the input")
		}
	})
}

// FuzzDecode drives arbitrary mutations of a valid snapshot through
// the full decoder; decoding must never panic, and every failure must
// be a named error. Each mutated image whose lengths still line up has
// its meta and payload checksums re-sealed, so the mutations reach the
// meta parser and the section decoders instead of stopping at a
// checksum. The seed is a two-layer network of a few kilobytes, written
// by Write at the current format, so the fuzzer can also minimize what
// it finds.
func FuzzDecode(f *testing.F) {
	spec := workload.Spec{Name: "tiny", Topology: "conv3x4-pool-10", Input: []int{1, 8, 8},
		WeightSparsity: 0.5, ActSparsity: 0.5, ConvSparsity: 0.5, FCSparsity: 0.5,
		RowFrac: 0.1, SegFrac: 0.2, ActOctaves: 5, IndexBits: 5, GSLConv: 0.5, GSLFC: 0.5}
	k := Key{Spec: spec, Prune: workload.SSL, Quant: quant.Default(),
		Geom: mapping.Default(), Seed: 1}
	b, err := k.Spec.Build(k.Prune, k.Quant, k.Geom, k.Seed, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, k, b); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), 0, byte(0xFF))
	f.Add(buf.Bytes(), headerSize+1, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos int, mask byte) {
		img := append([]byte(nil), data...)
		if len(img) > 0 {
			img[((pos%len(img))+len(img))%len(img)] ^= mask
		}
		if h, err := decodeHeader(img); err == nil {
			meta := img[headerSize : headerSize+int(h.metaLen)]
			copy(img, sealHeader(h.hash, meta, img[headerSize+int(h.metaLen):]))
		}
		if _, _, err := Decode(img); err != nil && !errors.Is(err, ErrCorrupt) &&
			!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrHashMismatch) {
			t.Fatalf("unnamed error: %v", err)
		}
	})
}
