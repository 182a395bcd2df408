package main

import (
	"fmt"
	"math/rand"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/vtime"
)

// Layer micro-drivers: each calls one layer's public functions on inputs
// sized from the workloads and reports host time per unit of work. They
// feed per-layer metrics only, never the end-to-end ones.

// microVtime ping-pongs two procs through Park/Wake while a callback chain
// re-arms Sim.After, and returns host nanoseconds per dispatched event.
func microVtime(rounds int) float64 {
	sim := vtime.NewSim()
	var ping, pong *vtime.Proc
	turn := 0
	ping = sim.Spawn("ping", func(p *vtime.Proc) {
		for i := 0; i < rounds; i++ {
			turn = 1
			sim.Wake(pong)
			for turn != 0 {
				p.Park()
			}
		}
		turn = -1
		sim.Wake(pong)
	})
	pong = sim.Spawn("pong", func(p *vtime.Proc) {
		for {
			for turn == 0 {
				p.Park()
			}
			if turn < 0 {
				return
			}
			turn = 0
			sim.Wake(ping)
		}
	})
	left := rounds
	var tick func()
	tick = func() {
		if left--; left > 0 {
			sim.After(time.Microsecond, tick)
		}
	}
	sim.After(time.Microsecond, tick)
	start := time.Now()
	sim.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(sim.EventsProcessed())
}

// microAlltoallv returns host microseconds for one sparse Alltoallv across
// ranks MPI ranks, each filling buffers for only fanout successors (the
// shape of a wc-wide shuffle). The host time of launching and retiring the
// same ranks with no exchange is subtracted.
func microAlltoallv(ranks, fanout int) (float64, error) {
	payload := make([]byte, 64)
	var failed error
	exchange := launchWall(ranks, func(c *mpi.Comm) {
		bufs := make([][]byte, c.Size())
		for k := 1; k <= fanout; k++ {
			bufs[(c.Rank()+k)%c.Size()] = payload
		}
		if _, err := c.Alltoallv(bufs); err != nil && failed == nil {
			failed = err
		}
	})
	if failed != nil {
		return 0, fmt.Errorf("alltoallv micro: %w", failed)
	}
	idle := launchWall(ranks, func(*mpi.Comm) {})
	return float64((exchange - idle).Microseconds()), nil
}

// launchWall launches ranks MPI ranks running body on a fresh cluster and
// returns the host time Sim.Run takes.
func launchWall(ranks int, body func(*mpi.Comm)) time.Duration {
	cfg := cluster.Default()
	cfg.Nodes = (ranks + cfg.PPN - 1) / cfg.PPN
	clus := cluster.New(cfg)
	mpi.Launch(clus, ranks, body)
	start := time.Now()
	clus.Sim.Run()
	return time.Since(start)
}

// kvMicro holds the kvbuf micro-driver results.
type kvMicro struct {
	addNs, convert4Ns, convert2Ns, convertBytes float64
}

// microKV builds a KV of pairs (word, 1) pairs drawn like the wordcount
// corpus, then times Add, and Partition followed by ConvertFourPass or
// ConvertTwoPass and EncodeKMV, over reps repetitions; results are per pair.
// convertBytes is what the two-pass convert moves per pair.
func microKV(seed int64, pairs, parts, reps int) kvMicro {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.07, 4.0, 19999)
	keys := make([][]byte, pairs)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("w%06d", zipf.Uint64()))
	}
	one := []byte{1}
	var kv *kvbuf.KV
	start := time.Now()
	for r := 0; r < reps; r++ {
		kv = kvbuf.NewKV()
		for _, k := range keys {
			kv.Add(k, one)
		}
	}
	var m kvMicro
	n := float64(pairs * reps)
	m.addNs = float64(time.Since(start).Nanoseconds()) / n

	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range kv.Partition(parts) {
			kmv, _ := kvbuf.ConvertFourPass(p)
			_ = kvbuf.EncodeKMV(kmv)
		}
	}
	m.convert4Ns = float64(time.Since(start).Nanoseconds()) / n

	var moved int
	start = time.Now()
	for r := 0; r < reps; r++ {
		moved = 0
		for _, p := range kv.Partition(parts) {
			kmv, st := kvbuf.ConvertTwoPass(p)
			_ = kvbuf.EncodeKMV(kmv)
			moved += st.Total()
		}
	}
	m.convert2Ns = float64(time.Since(start).Nanoseconds()) / n
	m.convertBytes = float64(moved) / float64(pairs)
	return m
}

// microStorage appends frames of frameKB KiB to a node-local tier from a
// spawned proc, reads the file back after every batch, and returns host
// nanoseconds per KiB appended and per KiB read.
func microStorage(frames, frameKB, batches int) (appendNs, readNs float64, err error) {
	sim := vtime.NewSim()
	cfg := cluster.Default()
	tier := storage.NewTier("local", storage.NewFS(), vtime.NewBandwidth(sim, "disk", cfg.LocalDiskBW), cfg.LocalDiskOpLat, "local:")
	frame := make([]byte, frameKB<<10)
	var appendWall, readWall time.Duration
	var readKB int
	sim.Spawn("io", func(p *vtime.Proc) {
		for b := 0; b < batches && err == nil; b++ {
			path := fmt.Sprintf("ckpt/%d", b)
			start := time.Now()
			for f := 0; f < frames && err == nil; f++ {
				_, err = tier.AppendFile(p, path, frame, 1)
			}
			appendWall += time.Since(start)
			start = time.Now()
			var data []byte
			if err == nil {
				data, _, err = tier.ReadFile(p, path)
			}
			readWall += time.Since(start)
			readKB += len(data) >> 10
			tier.Remove(path)
		}
	})
	sim.Run()
	if err != nil {
		return 0, 0, fmt.Errorf("storage micro: %w", err)
	}
	appendNs = float64(appendWall.Nanoseconds()) / float64(frames*frameKB*batches)
	readNs = float64(readWall.Nanoseconds()) / float64(readKB)
	return appendNs, readNs, nil
}
