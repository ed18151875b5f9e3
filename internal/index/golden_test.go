package index

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"vdtuner/internal/linalg"
)

// indexGolden pins the absolute output of every index type: the FNV-64a
// fingerprint of its BuildStats, MemoryBytes, and, for 16 queries at k=10,
// the SearchInto results (ids and distance bit patterns) together with the
// accumulated search Stats. Multi-vs-single suites compare two paths of
// the same code against each other; this table catches a change that
// moves both the same way.
var indexGolden = map[string]uint64{
	"FLAT/L2":          0x230ac09726ef2fc6,
	"FLAT/IP":          0x1e1713872ba7afcc,
	"IVF_FLAT/L2":      0x4fe1ea4964ec190d,
	"IVF_FLAT/IP":      0xc09dd63041f76ab2,
	"IVF_SQ8/L2":       0x3296031d9bc9a855,
	"IVF_SQ8/IP":       0x1c2841f5640be471,
	"IVF_PQ/L2":        0x910c1d00c3be0157,
	"IVF_PQ/IP":        0x42986ec989e58f7b,
	"HNSW/L2":          0x3eb7cb0b534d8640,
	"HNSW/IP":          0xf2482fc2f0fe921a,
	"SCANN/L2":         0xf7b4517baa420625,
	"SCANN/IP":         0x8198896e06532c4e,
	"AUTOINDEX/L2":     0xcc2499a90713f106,
	"AUTOINDEX/IP":     0x6e3b98787ff7ffdc,
	"IVF_PQ/L2/nbits9": 0x5f69e9da6b3ee2a3,
	"IVF_PQ/IP/nbits9": 0x30f36e228064af91,
}

func TestIndexGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fingerprints are recorded on amd64; on %s the compiler may fuse multiply-adds in the portable kernels, changing distance bits", runtime.GOARCH)
	}
	const k = 10
	sp := SearchParams{NProbe: 4, Ef: 32, ReorderK: 20}
	bp := BuildParams{NList: 16, M: 4, NBits: 6, HNSWM: 8, EfConstruction: 50, Seed: 13}
	vecs, ids, queries, _ := testData(t, 700, 16, 16, k, 13)

	type goldenCase struct {
		typ    Type
		bp     BuildParams
		suffix string
	}
	var cases []goldenCase
	for _, typ := range AllTypes() {
		cases = append(cases, goldenCase{typ, bp, ""})
	}
	wide := bp
	wide.NBits = 9 // ksubN > 256: the 2-byte PQ code path
	cases = append(cases, goldenCase{IVFPQ, wide, "/nbits9"})

	for _, metric := range []linalg.Metric{linalg.L2, linalg.InnerProduct} {
		for _, c := range cases {
			name := c.typ.String() + "/" + metric.String() + c.suffix
			idx, err := New(c.typ, metric, 16, c.bp)
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
				t.Fatalf("Build(%s): %v", name, err)
			}
			h := fnv.New64a()
			put := func(v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			putStats := func(s Stats) {
				put(uint64(s.DistComps))
				put(uint64(s.CodeComps))
				put(uint64(s.Lookups))
			}
			putStats(idx.BuildStats())
			put(uint64(idx.MemoryBytes()))
			var st Stats
			for _, q := range queries {
				top := linalg.NewTopK(k)
				idx.SearchInto(q, k, sp, &st, top)
				res := top.Results()
				put(uint64(len(res)))
				for _, nb := range res {
					put(uint64(nb.ID))
					put(uint64(math.Float32bits(nb.Dist)))
				}
			}
			putStats(st)
			got := h.Sum64()
			want, ok := indexGolden[name]
			if !ok {
				t.Errorf("%s: no golden fingerprint recorded (got %#x)", name, got)
				continue
			}
			if got != want {
				t.Errorf("%s: fingerprint %#x, want %#x", name, got, want)
			}
		}
	}
}
