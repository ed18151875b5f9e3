package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// kernelTile is the query-tile height of the kernel timings: the batch
// size the engine's SearchBatch feeds its multi-query kernels.
const kernelTile = 64

// kernelChunkRows bounds one kernel call's arena slice, so the output
// buffer stays small while the arena streams through the cache as it does
// in a cell scan.
const kernelChunkRows = 4096

// kernelCosts times the float32 multi-query kernel (DistanceMultiBlock)
// and the SQ8 multi-query kernel (DistanceSQ8MultiScatter) at the
// workload's dimension, with a 64-query tile, over an arena of the
// workload's size. It returns nanoseconds per (query, row) distance, the
// median of three passes each.
func kernelCosts(r *run, m linalg.Metric, store *linalg.Matrix, queries [][]float32) (f32ns, sq8ns float64) {
	dim, rows := store.Dim(), store.Rows()
	q := make([][]float32, kernelTile)
	for i := range q {
		q[i] = queries[i%len(queries)]
	}
	qm := linalg.MatrixFromRows(q)

	// SQ8 codes: per-dimension min/max scaling, as the SQ8 index trains.
	mins := make([]float32, dim)
	scale := make([]float32, dim)
	for j := 0; j < dim; j++ {
		lo, hi := store.Row(0)[j], store.Row(0)[j]
		for i := 1; i < rows; i++ {
			v := store.Row(i)[j]
			lo = min(lo, v)
			hi = max(hi, v)
		}
		mins[j] = lo
		scale[j] = (hi - lo) / 255
		if scale[j] == 0 {
			scale[j] = 1
		}
	}
	codes := make([]byte, rows*dim)
	for i := 0; i < rows; i++ {
		row := store.Row(i)
		for j, v := range row {
			c := (v-mins[j])/scale[j] + 0.5
			codes[i*dim+j] = byte(max(0, min(255, c)))
		}
	}
	sq8q := make([][]float32, kernelTile)
	for i := range sq8q {
		sq8q[i] = make([]float32, dim)
		if m == linalg.L2 {
			linalg.SQ8Residual(q[i], mins, sq8q[i])
		} else {
			copy(sq8q[i], q[i])
		}
	}

	out := make([]float32, kernelTile*kernelChunkRows)
	outs := make([][]float32, kernelTile)
	for i := range outs {
		outs[i] = make([]float32, kernelChunkRows)
	}
	chunk := make([][]float32, kernelTile)
	data := store.Data()
	dists := float64(kernelTile) * float64(rows)
	var f32, sq8 []float64
	for rep := 0; rep < 3; rep++ {
		sp := r.tr.begin("linalg.DistanceMultiBlock", -1, 0)
		t0 := time.Now()
		for lo := 0; lo < rows; lo += kernelChunkRows {
			hi := min(lo+kernelChunkRows, rows)
			linalg.DistanceMultiBlock(m, qm, data[lo*dim:hi*dim], out[:kernelTile*(hi-lo)])
		}
		f32 = append(f32, float64(time.Since(t0).Nanoseconds())/dists)
		r.tr.end(sp)

		sp = r.tr.begin("linalg.DistanceSQ8MultiScatter", -1, 0)
		t0 = time.Now()
		for lo := 0; lo < rows; lo += kernelChunkRows {
			hi := min(lo+kernelChunkRows, rows)
			for i := range chunk {
				chunk[i] = outs[i][:hi-lo]
			}
			linalg.DistanceSQ8MultiScatter(m, sq8q, mins, scale, codes[lo*dim:hi*dim], chunk)
		}
		sq8 = append(sq8, float64(time.Since(t0).Nanoseconds())/dists)
		r.tr.end(sp)
	}
	return median(f32), median(sq8)
}

// setKernelLayer reports the linalg metrics: the two unit costs, and the
// share of the in-process search time that the index's work counts cost
// at those unit costs. PQ table lookups have no timed kernel here and are
// left out of the share.
func setKernelLayer(r *run, f32ns, sq8ns float64, st index.Stats, queries int, searchNsPerQuery float64) {
	r.set("linalg.f32_ns_per_dist", f32ns)
	r.set("linalg.sq8_ns_per_code", sq8ns)
	perQuery := (float64(st.DistComps)*f32ns + float64(st.CodeComps)*sq8ns) / float64(queries)
	r.set("linalg.kernel_share", perQuery/searchNsPerQuery)
	r.set("index.dist_comps_per_query", float64(st.DistComps)/float64(queries))
	r.set("index.code_comps_per_query", float64(st.CodeComps)/float64(queries))
	r.set("index.lookups_per_query", float64(st.Lookups)/float64(queries))
}

// notApplicable reports 0 for per-layer metrics of layers the workload
// makes no call into.
func (r *run) notApplicable(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// relay is a loopback TCP proxy that counts the bytes of each direction.
// The traced run routes a short pass through it to measure the wire cost
// per query exactly; untraced runs never use it.
type relay struct {
	ln       net.Listener
	target   string
	up, down atomic.Int64 // client→server, server→client

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &relay{ln: ln, target: target}
	rl.wg.Add(1)
	go rl.accept()
	return rl, nil
}

func (rl *relay) addr() string { return rl.ln.Addr().String() }

func (rl *relay) accept() {
	defer rl.wg.Done()
	for {
		in, err := rl.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", rl.target)
		if err != nil {
			in.Close()
			continue
		}
		rl.mu.Lock()
		if rl.closed {
			rl.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		rl.conns = append(rl.conns, in, out)
		rl.wg.Add(2)
		rl.mu.Unlock()
		go rl.pipe(out, in, &rl.up)
		go rl.pipe(in, out, &rl.down)
	}
}

// pipe copies src to dst, counting bytes; when either side ends it closes
// both, which ends the opposite pipe too.
func (rl *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer rl.wg.Done()
	c, _ := io.Copy(dst, src) // ends when either side closes; the count is what matters
	n.Add(c)
	dst.Close()
	src.Close()
}

// close stops the relay and waits for every copier to exit.
func (rl *relay) close() {
	rl.ln.Close()
	rl.mu.Lock()
	rl.closed = true
	for _, c := range rl.conns {
		c.Close()
	}
	rl.mu.Unlock()
	rl.wg.Wait()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
