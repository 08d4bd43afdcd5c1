// Package cas is the content-addressed tile store behind online ingest:
// venti's split applied to IPComp containers. Every compressed tile
// archive is an immutable blob keyed by the SHA-256 of its bytes (its
// "score"); a snapshot of one field at one time step is a manifest — an
// ordered list of scores plus the dataset geometry — so a time series of
// simulation snapshots stores each distinct tile exactly once, and a new
// snapshot costs only the blobs for its changed tiles. Integrity
// verification falls out of the addressing: a blob whose bytes do not
// hash to its key is detected on first read.
//
// Writes are fossil-shaped: puts land in an open epoch (blobs and
// manifests staged in memory, readable immediately), and Seal flushes the
// epoch to disk with an all-or-nothing commit — blobs first (each written
// to a temp file and renamed), then manifests staged as .new files, then
// a journal whose rename is the commit point, then the .new renames. A
// crash at any instant leaves either every snapshot of the epoch visible
// after recovery (journal present: roll forward) or none of them (no
// journal: the .new files are discarded). Sealed state is append-only;
// Delete removes a snapshot's manifest and GC sweeps blobs no manifest
// references.
//
// A writer that can tell, before compressing, that a tile is the one the
// field's latest snapshot already stored hands PutPrinted a Fingerprint
// per tile and no bytes for those tiles; the store keeps the latest
// snapshot's fingerprints in memory (never on disk) and resolves such a
// tile to the stored blob only while it still holds that blob.
//
// The package knows nothing about compression or containers: blobs are
// opaque bytes, fingerprints are opaque hashes, geometry is integers. internal/store synthesizes a
// well-formed read-only container view over a manifest (see
// store.OpenSnapshot), which is what lets the whole existing read path —
// region retrieval, progressive planes, raw re-export — serve snapshots
// unchanged.
package cas
