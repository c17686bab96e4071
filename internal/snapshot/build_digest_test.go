package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"sre/internal/mapping"
	"sre/internal/parallel"
	"sre/internal/quant"
	"sre/internal/workload"
)

// buildCase is one pinned build: a Table 2 network under a prune mode
// and slice cap, at quant.Default(), mapping.Default() and seed 1.
type buildCase struct {
	net      string
	prune    workload.PruneMode
	sliceCap int
	want     string // hex sha-256
}

// buildDigests are the sha-256 digests of Write's bytes for each case's
// Spec.Build, taken when the build still drew every weight in full and
// pruned the matrix in place. A build that derives the zeros first and
// draws only the survivors must leave every byte as it was.
var buildDigests = []buildCase{
	{"MNIST", workload.SSL, 0, "d29e4860ed798378a58312a31b4cb474ea6adff926d6f5270f285ed7678955ae"},
	{"MNIST", workload.GSL, 0, "5fffd07ccf327cfa40bf2e5a2b53496b88b791e1a36c86cab7cbee518eaef5ee"},
	{"MNIST", workload.NoPrune, 0, "1af0b774c3648fe46e7066203dd3999e76fd7c9076601bfd36f37ce920b0c1f5"},
	{"MNIST", workload.SSL, 3, "40b72f14fabd64a544834a49b9403fc9cc8f9bf30fa9d3208bf23e6889333876"},
	{"MNIST", workload.GSL, 3, "7ffe14ddfd012c5e28e0663e83c2079e0a00c6985fd22a68670b18c2c4fad6a2"},
	{"CIFAR-10", workload.SSL, 0, "c87eb2f1a9917e5fe2eade71e9e372757da85937760f71e90e5a8307f2504961"},
	{"CIFAR-10", workload.GSL, 0, "a1db98c8b554047edb923360437b45863bedba2b0a0c841322b30f3798627a4e"},
	{"CIFAR-10", workload.NoPrune, 0, "dc9c98c3a64681a8113203e5372b156b96743afe3407f1b9d0edbdc53f1c3aab"},
	{"CIFAR-10", workload.SSL, 3, "0912c7dfc6dca90a2d735420734c4f55a9e739863fb5f01d46c93be8ad816b32"},
	{"CIFAR-10", workload.GSL, 3, "abacedcc5ba8196096474db6c08c8d781260997cb142b73a4def3e862f23bc06"},
	{"GoogLeNet", workload.SSL, 0, "2b38593eb898e798a2a333dc2d18f071bc4c91926f97ba2baab96ba749610d82"},
	{"GoogLeNet", workload.GSL, 0, "b7931dfe48c0b362734bdc3976fe96200d632a0c5b5e3736f80f0ec99ab188d8"},
	{"GoogLeNet", workload.NoPrune, 0, "9b778df6e57fb0274bc9d00f96bd5659f897dd07165ca5479da06e35228df66d"},
	{"GoogLeNet", workload.SSL, 3, "3615afd5848f49f4f011f544af00f04e07025d63c81364de72f35c39b34e370a"},
	{"GoogLeNet", workload.GSL, 3, "65b8cf46b72212aae5b0d8e44581c75605e7eebd118883872e9508e317317eaa"},
	{"ResNet-50", workload.SSL, 0, "a6f385d061e230ae2d382b160fd638df44c754ae119a038449f63019516e6fec"},
	{"ResNet-50", workload.GSL, 0, "abd57553b0fae8509fd191f62f12d2e9009efd116ef58ee4b7345db4aa5a1413"},
	{"ResNet-50", workload.NoPrune, 0, "e93ed5e1cc4114b3ef4ba6eca1ecf5b0a501e4fb4a868b652e977d577fb38efd"},
	{"ResNet-50", workload.SSL, 3, "690c8ea76c1161a5c7931a186bb1a247ce507084e4b55afb42645959ce39b76f"},
	{"ResNet-50", workload.GSL, 3, "d11c31d888ff2d233b15384f7c36f908aa54f98e1644fce33f185749247db835"},
	{"CaffeNet", workload.SSL, 0, "63c1ceef943b4be155a4183cc22810bfe1117b3a4651ee3b6d565b86981e67fc"},
	{"CaffeNet", workload.GSL, 0, "b7138137b545304d47f658632045e80b8858bfed5e29ee991e0b5eaca55197d2"},
	{"CaffeNet", workload.NoPrune, 0, "e4a4cc7fea81ec06f95dd33205df140237057802e24fe96b6d38f850c910e5be"},
	{"CaffeNet", workload.SSL, 3, "6a4af21071d02e5279e926f65f38a3957b4a707c1687b0dda855cf3ee9cfe018"},
	{"CaffeNet", workload.GSL, 3, "9c58a0b03b37792b8973eb54f05b9c5fa60588ad78f61d0eceb865aba98bd989"},
	{"VGG-16", workload.SSL, 0, "4976f413cecc465a668de972258c11a8d23496314155e3e837869e6cc728a8db"},
	{"VGG-16", workload.GSL, 0, "258f1ffb699f1796c72d3b0bb566bfe181e03b32f7e649b67da6e2bf847d994b"},
	{"VGG-16", workload.NoPrune, 0, "448ff62a6583c15c42af37e996f80b006717ed3baa91710a1fdf26603a4dac03"},
	{"VGG-16", workload.SSL, 3, "aa671f55ee3d72661d4a965c37d96df689ad1c8f75b12ac206043f7b4a8431a5"},
	{"VGG-16", workload.GSL, 3, "dc31ee1ce3f76f176a12205904f86b3b4453aa4355918e93722b8de2c5b6f55e"},
}

// occDigests hash each layer's BuildOCCStructures CompressedCells and
// OutputIndexBits, little-endian int64 pairs in layer order, taken
// alongside buildDigests.
var occDigests = []buildCase{
	{"MNIST", workload.SSL, 0, "ed0860a582349326a0cd1299e51b8bc2df654d6c938d96acc9b4e64adcd75eea"},
	{"MNIST", workload.GSL, 0, "388b504bf4d86d4c859096fb122ee2266b2f54d7a0396bd52b39c26b3e6ee011"},
	{"MNIST", workload.NoPrune, 0, "c0f08c68bb95098d4b37ac0caf1a151809fcf968b4f07b8764a8bc3d522e7895"},
	{"CIFAR-10", workload.SSL, 0, "e6cb9cdba7026a95fc2d7d9f6bdfa7a0400fcd57bb6cb10593efcc57ee073b82"},
	{"CIFAR-10", workload.GSL, 0, "eafd200b43b0b61c966844730badb6fd80b4ce4742059873d5ca6bbcbabfcf78"},
	{"CIFAR-10", workload.NoPrune, 0, "043b40d0dc344ff1651bffb0c322b4daa7fc21edf91fad8c80f0c3075759f630"},
}

// skipBuild reports why a case's network is too large for this run:
// VGG-16 and CaffeNet are left out under -short, and the race detector
// builds only the two small networks.
func skipBuild(net string) string {
	small := net == "MNIST" || net == "CIFAR-10"
	switch {
	case raceEnabled && !small:
		return "the race detector builds only MNIST and CIFAR-10"
	case testing.Short() && (net == "VGG-16" || net == "CaffeNet"):
		return "-short leaves out VGG-16 and CaffeNet"
	}
	return ""
}

// TestBuildDigests holds Spec.Build's snapshot bytes, and
// BuildOCCStructures' per-layer counts, to the pinned digests at pool
// widths 1, 2 and 4: the build is bit-identical to the full-draw one
// and does not depend on how its layers and row blocks are scheduled.
// Each file must also decode.
func TestBuildDigests(t *testing.T) {
	p, g := quant.Default(), mapping.Default()
	for _, c := range buildDigests {
		t.Run(fmt.Sprintf("%s/%v/cap%d", c.net, c.prune, c.sliceCap), func(t *testing.T) {
			if why := skipBuild(c.net); why != "" {
				t.Skip(why)
			}
			spec, err := workload.SpecByName(c.net)
			if err != nil {
				t.Fatal(err)
			}
			spec.SliceCap = c.sliceCap
			k := Key{Spec: spec, Prune: c.prune, Quant: p, Geom: g, Seed: 1}
			for _, width := range []int{1, 2, 4} {
				b, err := spec.Build(c.prune, p, g, 1, parallel.New(width))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := Write(&buf, k, b); err != nil {
					t.Fatal(err)
				}
				if got := sha256.Sum256(buf.Bytes()); hex.EncodeToString(got[:]) != c.want {
					t.Fatalf("width %d: snapshot digest %x, pinned %s", width, got, c.want)
				}
				if width == 1 {
					// Decode derives every layer's shell from the key and
					// must accept the file Build wrote, groups and all.
					if _, _, err := Decode(buf.Bytes()); err != nil {
						t.Fatalf("the built network's snapshot does not decode: %v", err)
					}
				}
			}
		})
	}
	for _, c := range occDigests {
		t.Run(fmt.Sprintf("OCC/%s/%v", c.net, c.prune), func(t *testing.T) {
			spec, err := workload.SpecByName(c.net)
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 2, 4} {
				occs, err := spec.BuildOCCStructures(c.prune, p, g, 1, parallel.New(width))
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, o := range occs {
					binary.Write(h, binary.LittleEndian, o.CompressedCells())
					binary.Write(h, binary.LittleEndian, o.OutputIndexBits())
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
					t.Fatalf("width %d: OCC digest %s, pinned %s", width, got, c.want)
				}
			}
		})
	}
}
