package obs

import (
	"encoding/json"
	"io"
)

// BatchSpan is one columnar batch's trace through the parallel
// pipeline: router fill, ring enqueue (with backpressure evidence),
// the shard's switch ProcessColumns pass and the NIC
// reconstruct/merge/emit work it caused. Batches are sampled 1-in-K
// by the CG hash of their first row — the hash is already carried in
// the columns, so sampling costs one mask test per batch — and the
// selected batch's span rides inside the batch itself: the router
// fills the ingress half, the shard completes the extraction half and
// records the finished span into its fixed ring.
//
// Clock domains: FillStart/FillEnd are the router's logical clock
// (packets routed so far). The stage deltas are differences of the
// shard's own switch/NIC counters around the batch.
type BatchSpan struct {
	// Sampled marks a live span; the router sets it when the batch's
	// first row wins the hash lottery. Cleared by Columns.Reset.
	Sampled bool `json:"-"`
	// Shard and Batch identify the span: Shard is stamped by the ring
	// that retains it, Batch is the shard's dispatch ordinal (1-based),
	// so (Shard, Batch) totally orders spans.
	Shard int32  `json:"shard"`
	Batch uint64 `json:"batch"`
	// Rows is the batch fill at dispatch; Hash the first-row CG hash
	// that selected it.
	Rows int32  `json:"rows"`
	Hash uint32 `json:"hash"`

	// FillStart/FillEnd bracket the router fill (packets routed when
	// the first row landed / when the batch was dispatched).
	FillStart uint64 `json:"fill_start"`
	FillEnd   uint64 `json:"fill_end"`

	// Enqueue evidence, gathered producer-side just before the batch
	// is published (the span rides inside the batch, so nothing may be
	// written after the hand-off): in-ring occupancy counting this
	// batch, producer park episodes the push cost, and whether the
	// consumer was parked at publish time (the publish is then what
	// wakes it). These depend on scheduling and are the span's only
	// nondeterministic fields.
	EnqueueOcc   int32  `json:"enqueue_occ"`
	ProdParks    uint32 `json:"prod_parks"`
	WokeConsumer bool   `json:"woke_consumer"`

	// Switch deltas across ProcessColumns.
	SwPktsIn    uint32 `json:"sw_pkts_in"`
	SwFiltered  uint32 `json:"sw_filtered"`
	SwCellsOut  uint32 `json:"sw_cells_out"`
	SwMsgsOut   uint32 `json:"sw_msgs_out"`
	SwEvictions uint32 `json:"sw_evictions"`
	SwShed      uint32 `json:"sw_shed"`

	// NIC deltas across the same window (the switch delivers evicted
	// MGPVs synchronously, so the NIC work the batch caused lands
	// inside it).
	NICMsgs      uint32 `json:"nic_msgs"`
	NICMGPVs     uint32 `json:"nic_mgpvs"`
	NICCells     uint32 `json:"nic_cells"`
	NICVectors   uint32 `json:"nic_vectors"`
	NICEMEMDrops uint32 `json:"nic_emem_drops"`
}

func (s BatchSpan) stamp(shard int32, _ uint64) BatchSpan {
	s.Shard = shard
	return s
}

// WriteSpansJSON renders merged spans as indented JSON.
func WriteSpansJSON(w io.Writer, spans []BatchSpan) error {
	if spans == nil {
		spans = []BatchSpan{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
