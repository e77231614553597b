package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// memref is the reference kernel the bounded timing metrics are
// expressed in: independent random read-modify-writes over a table far
// larger than the last-level cache. This box's memory system slows by
// 15-30% for minutes at a time (neighbours on the host), which moves
// every pass time with it and which no statistic over passes removes;
// the same slowdown moves this kernel (a dependent-load chain, which
// times latency alone, does not follow it; an ALU-only loop does not
// move at all), so a pass time divided by the kernel's reading beside
// it holds still. The kernel shares no code with the system under
// test and runs only between passes. It is always read right after a
// pass, which leaves it nothing in L1/L2; how much of the table the
// host's shared last-level cache still holds is the very thing that
// varies with the neighbours, and is why it follows the pass times. A
// change that moved the system's own footprint by a large share of
// that cache (260 MiB here) would move the reading a little too.
type memref struct {
	table []byte
}

const (
	memrefBytes = 32 << 20
	memrefOps   = 1 << 19
)

// newMemref maps the table outside the Go heap, so that it does not
// raise the collector's heap goal and thin out the collections the
// system under test would otherwise pay for.
func newMemref() (*memref, error) {
	b, err := syscall.Mmap(-1, 0, memrefBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap reference table: %w", err)
	}
	m := &memref{table: b}
	m.nsPerOp() // touch every page once
	return m, nil
}

func (m *memref) close() error { return syscall.Munmap(m.table) }

// nsPerOp runs the kernel once and returns its time per operation.
func (m *memref) nsPerOp() float64 {
	const mask = memrefBytes/8 - 1
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < memrefOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := m.table[(x&mask)*8:]
		binary.LittleEndian.PutUint64(slot, binary.LittleEndian.Uint64(slot)+x)
	}
	return float64(time.Since(t0)) / memrefOps
}

var calibSink uint64

// calibrate times a fixed pure-Go kernel that shares no code with the
// system under test, so a drift of the machine can be told from a
// change of the code.
func calibrate() float64 {
	const ops = 1 << 23
	xs := make([]float64, 5)
	for k := range xs {
		x, acc := uint64(88172645463325252), uint64(0)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x * 0x9e3779b97f4a7c15
		}
		xs[k] = float64(time.Since(t0)) / ops
		calibSink += acc
	}
	return median(xs)
}
