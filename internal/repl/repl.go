// Package repl is the trainer → follower replication subsystem: one
// writer ingests crowdsourced fingerprint reports while any number of
// read-only replicas serve localization from generation-numbered
// snapshots of the same radio map.
//
// The protocol has exactly two endpoints on the trainer:
//
//	GET /v1/replicate/snapshot        — bootstrap payload: a manifest,
//	                                    the compiled ILRMAPv2 artifact,
//	                                    and the exact-resume sigma blob
//	GET /v1/replicate/wal?from=<seq>&gen=<g>
//	                                  — chunked tail of the report WAL
//	                                    as CRC-framed records, with
//	                                    publish notes and heartbeats;
//	                                    gen names the generation the
//	                                    follower already serves
//
// A follower bootstraps from the snapshot payload, reconstructs a
// replica training database that is bit-identical to the trainer's
// frozen state at the snapshot's WAL watermark, then folds the tailed
// records in strict sequence order. Because the trainer folds in WAL
// order too (ingest.Manager serializes journal append and queue
// insertion), and because Welford resume state ships exactly (the raw
// per-cell means and standard deviations, not the rounded and clamped
// compiled records), the replica's compiled view after record N is
// byte-identical to the trainer's after record N — the property the
// chaos tests pin.
//
// # Identity and ordering invariants
//
//   - A WAL lifetime is named by its epoch (ingest.WAL.Epoch). Sequence
//     numbers are 1-based ordinals within one epoch and are never
//     reused. A follower position ⟨epoch, seq⟩ from another epoch is
//     meaningless: on any epoch mismatch the follower discards its
//     world and re-bootstraps.
//   - Within an epoch the head only grows. A hello or heartbeat whose
//     head is below the follower's applied sequence means the trainer's
//     history regressed (a restored backup, a truncated log): the
//     follower re-bootstraps rather than guess.
//   - Snapshot generations grow monotonically within an epoch. A
//     bootstrap manifest older than what the follower already serves is
//     rejected as stale (the trainer will publish a newer one; retry
//     with backoff).
//   - A publish note is only announced at stream positions ≥ its
//     watermark, so when a follower's applied sequence equals the note's
//     watermark, replica generation and note generation must agree —
//     disagreement means the histories forked and the follower
//     re-bootstraps.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Manifest describes one published trainer snapshot: the identity of
// the radio map (epoch, generation, WAL watermark), the fold and
// floor parameters a follower must mirror exactly, and the checksums
// of the two payload blobs that follow it in a snapshot response.
type Manifest struct {
	// Epoch is the WAL lifetime the watermark counts within.
	Epoch uint64 `json:"epoch"`
	// Generation is the radio-map generation of the artifact.
	Generation uint64 `json:"generation"`
	// Watermark is the WAL sequence folded into the artifact: resuming
	// the tail from it replays exactly the records the artifact has not
	// seen.
	Watermark uint64 `json:"wal_watermark"`
	// FloorRSSI and FloorSigma are the floor-model parameters the
	// trainer compiles with; a follower refuses any but core.FloorRSSI
	// and core.FloorSigma, the floor it patches and compiles at.
	FloorRSSI  float64 `json:"floor_rssi"`
	FloorSigma float64 `json:"floor_sigma"`
	// SnapRadius is the coordinate-snap fold rule (ingest.Folder); a
	// follower folds with the bootstrap manifest's and resets on a note
	// that carries another.
	SnapRadius float64 `json:"snap_radius"`
	// Entries and APs are the artifact's dimensions, for operators.
	Entries int `json:"entries"`
	APs     int `json:"aps"`
	// ArtifactSize/ArtifactCRC frame the ILRMAPv2 blob in the snapshot
	// response; ResumeSize/ResumeCRC frame the sigma resume blob.
	ArtifactSize int64  `json:"artifact_size"`
	ArtifactCRC  uint32 `json:"artifact_crc"`
	ResumeSize   int64  `json:"resume_size"`
	ResumeCRC    uint32 `json:"resume_crc"`
}

// Payload size sanity bounds for ParseManifest. The artifact for even
// a continent-scale venue fits well under 4 GiB; the resume blob is
// 8 bytes per trained cell and strictly smaller than the artifact.
const (
	maxArtifactSize = int64(1) << 32
	maxResumeSize   = int64(1) << 31
	// maxManifestSize bounds the JSON blob itself on the wire.
	maxManifestSize = 1 << 16
)

// ParseManifest decodes and validates a wire manifest. It rejects
// impossible identities (a zero epoch — the follower's "no epoch yet"
// sentinel must never appear on the wire) and insane payload framing
// before any byte of the blobs is trusted.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("repl: parse manifest: %w", err)
	}
	switch {
	case m.Epoch == 0:
		return nil, errors.New("repl: manifest has zero epoch")
	case m.Entries < 0 || m.APs < 0:
		return nil, fmt.Errorf("repl: manifest has negative dimensions (%d×%d)", m.Entries, m.APs)
	case m.ArtifactSize <= 0 || m.ArtifactSize > maxArtifactSize:
		return nil, fmt.Errorf("repl: manifest artifact size %d out of range", m.ArtifactSize)
	case m.ResumeSize <= 0 || m.ResumeSize > maxResumeSize:
		return nil, fmt.Errorf("repl: manifest resume size %d out of range", m.ResumeSize)
	}
	return &m, nil
}

// Hello is the first frame of every WAL stream and the payload of
// every heartbeat: where the trainer's log stands (head) and where
// this stream stands in it (from), plus the latest published snapshot
// identity, so the follower can compute lag in sequences and bytes
// without a side channel.
type Hello struct {
	// Epoch is the WAL lifetime being streamed.
	Epoch uint64 `json:"epoch"`
	// HeadSeq/HeadBytes are the last durable record's sequence and the
	// byte offset just past it.
	HeadSeq   uint64 `json:"head_seq"`
	HeadBytes int64  `json:"head_bytes"`
	// FromSeq/FromBytes are the stream cursor: the sequence and byte
	// offset the next record frame continues from. On the initial hello
	// FromBytes anchors the follower's byte-lag accounting.
	FromSeq   uint64 `json:"from_seq"`
	FromBytes int64  `json:"from_bytes"`
	// Generation/Watermark identify the latest published snapshot (zero
	// when the source has not captured one yet).
	Generation uint64 `json:"generation"`
	Watermark  uint64 `json:"wal_watermark"`
}

// ParseHello decodes and validates a hello/heartbeat payload.
func ParseHello(data []byte) (*Hello, error) {
	var h Hello
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("repl: parse hello: %w", err)
	}
	switch {
	case h.Epoch == 0:
		return nil, errors.New("repl: hello has zero epoch")
	case h.HeadBytes < 0 || h.FromBytes < 0:
		return nil, errors.New("repl: hello has negative byte offsets")
	case h.FromSeq > h.HeadSeq:
		return nil, fmt.Errorf("repl: hello cursor %d beyond head %d", h.FromSeq, h.HeadSeq)
	}
	return &h, nil
}
