//! The in-memory distributed file system.
//!
//! Stands in for Cosmos/HDFS/GFS: named datasets made of partition "extents"
//! of rows. Every dataset keeps a decoded working copy (the `partitions` row
//! vectors the map phase scans) plus, per extent, its **native stored form**
//! ([`StoredExtent`]): the framed binary columnar encoding
//! ([`relation::extent`]) when the rows inhabit the schema, or a legacy
//! row-level [`ExtentFrame`] when they do not (ill-typed rows cannot be
//! transposed into typed column buffers).
//!
//! Both forms carry integrity frames — per-column FxHash frames inside the
//! binary bytes, a length + checksum frame for legacy extents — so consumers
//! ([`Dataset::verify_extent`], the cluster's map scan, persistence) detect
//! corruption instead of silently processing damaged data.
//!
//! Stage outputs arrive already sealed: each reduce task computes its
//! sinks' stored forms itself (a worker process ships the binary image,
//! which the driver keeps verbatim), and the cluster publishes them with
//! [`Dataset::from_stored`] without encoding anything on the driver.

use crate::chaos::ExtentFrame;
use crate::error::{MrError, Result};
use parking_lot::RwLock;
use relation::{ColumnBatch, DatasetStats, Row, Schema};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The stored (shippable) form of one extent.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredExtent {
    /// Framed binary columnar extent bytes — the native form — plus the
    /// row-level frame guarding the decoded working copy.
    Binary {
        /// Encoded extent (see [`relation::extent`] for the layout).
        bytes: Arc<Vec<u8>>,
        /// Frame over the decoded rows (detects bit rot in the working
        /// copy without decoding `bytes`).
        frame: ExtentFrame,
    },
    /// Rows that do not inhabit the schema types and so cannot transpose;
    /// guarded by the row-level frame only.
    Legacy(ExtentFrame),
    /// No integrity information (benchmark mode; verification passes
    /// vacuously).
    Unframed,
}

impl StoredExtent {
    /// Compute the stored form for one partition of rows: binary when the
    /// rows transpose into `schema`'s typed columns, legacy otherwise.
    pub(crate) fn compute(schema: &Schema, rows: &[Row]) -> StoredExtent {
        let frame = ExtentFrame::compute(rows);
        match ColumnBatch::from_rows(schema, rows).and_then(|b| b.to_extent_bytes()) {
            Ok(bytes) => StoredExtent::Binary {
                bytes: Arc::new(bytes),
                frame,
            },
            Err(_) => StoredExtent::Legacy(frame),
        }
    }
}

/// One stored dataset: schema, decoded partitioned rows, and per-extent
/// stored forms with integrity frames.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Row schema.
    pub schema: Schema,
    /// Partitions (extents), decoded. A freshly-loaded dataset may have
    /// any number; stage outputs have one per reduce partition.
    pub partitions: Arc<Vec<Vec<Row>>>,
    /// One stored form per extent; empty for unframed datasets.
    extents: Arc<Vec<StoredExtent>>,
}

impl Dataset {
    /// Build a single-partition dataset.
    pub fn single(schema: Schema, rows: Vec<Row>) -> Self {
        Dataset::partitioned(schema, vec![rows])
    }

    /// Build from explicit partitions, encoding and framing every extent.
    pub fn partitioned(schema: Schema, partitions: Vec<Vec<Row>>) -> Self {
        let extents = partitions
            .iter()
            .map(|p| StoredExtent::compute(&schema, p))
            .collect();
        Dataset {
            schema,
            partitions: Arc::new(partitions),
            extents: Arc::new(extents),
        }
    }

    /// Build from explicit partitions **without** integrity frames.
    /// Reads of an unframed dataset cannot detect corruption; this exists
    /// so the integrity overhead can be measured (`integrity: false` runs).
    pub fn partitioned_unframed(schema: Schema, partitions: Vec<Vec<Row>>) -> Self {
        Dataset {
            schema,
            partitions: Arc::new(partitions),
            extents: Arc::new(Vec::new()),
        }
    }

    /// Build from already-computed stored extents (stage outputs sealed by
    /// their reduce tasks, and the persistence load path: the binary bytes
    /// are kept verbatim, not re-encoded).
    pub(crate) fn from_stored(
        schema: Schema,
        partitions: Vec<Vec<Row>>,
        extents: Vec<StoredExtent>,
    ) -> Self {
        debug_assert_eq!(partitions.len(), extents.len());
        Dataset {
            schema,
            partitions: Arc::new(partitions),
            extents: Arc::new(extents),
        }
    }

    /// Stored forms, one per extent (empty for unframed datasets).
    pub fn extents(&self) -> &[StoredExtent] {
        &self.extents
    }

    /// The framed binary bytes of extent `i`, when it has a binary stored
    /// form (shippable/persistable without re-encoding).
    pub fn binary_extent(&self, i: usize) -> Option<&Arc<Vec<u8>>> {
        match self.extents.get(i) {
            Some(StoredExtent::Binary { bytes, .. }) => Some(bytes),
            _ => None,
        }
    }

    /// Verify extent `i`: the decoded rows against their frame, and the
    /// binary bytes against their per-column frames. Unframed datasets
    /// (and extent indices past the stored list) pass vacuously.
    pub fn verify_extent(&self, i: usize) -> Result<()> {
        let (Some(stored), Some(rows)) = (self.extents.get(i), self.partitions.get(i)) else {
            return Ok(());
        };
        let corrupt = |why: String| MrError::Corrupt {
            what: format!("extent {i}: {why}"),
        };
        match stored {
            StoredExtent::Binary { bytes, frame } => {
                frame.verify(rows).map_err(corrupt)?;
                relation::extent::verify_extent(bytes).map_err(|e| corrupt(e.to_string()))
            }
            StoredExtent::Legacy(frame) => frame.verify(rows).map_err(corrupt),
            StoredExtent::Unframed => Ok(()),
        }
    }

    /// Verify every extent against its frame.
    pub fn verify(&self) -> Result<()> {
        (0..self.partitions.len()).try_for_each(|i| self.verify_extent(i))
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows, concatenated in partition order.
    ///
    /// This materializes a deep copy; prefer [`Dataset::iter`] when
    /// borrowed access is enough.
    pub fn scan(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        for p in self.partitions.iter() {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// Borrowing iteration over all rows in partition order — the same
    /// order as [`Dataset::scan`], without copying anything.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.partitions.iter().flatten()
    }

    /// Compute exact statistics for the optimizer, streaming over the
    /// shared partitions (no copy of the dataset is materialized).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::compute(&self.schema, self.iter())
    }

    /// Validate every row against the schema.
    pub fn check(&self) -> Result<()> {
        for p in self.partitions.iter() {
            for row in p {
                row.check(&self.schema)?;
            }
        }
        Ok(())
    }
}

/// The distributed file system: a concurrent name → dataset map.
#[derive(Debug, Default)]
pub struct Dfs {
    datasets: RwLock<BTreeMap<String, Dataset>>,
}

impl Dfs {
    /// Empty DFS.
    pub fn new() -> Self {
        Dfs::default()
    }

    /// Store a dataset under `name`. Fails if the name is taken
    /// (datasets are immutable once written, like Cosmos extents).
    pub fn put(&self, name: impl Into<String>, dataset: Dataset) -> Result<()> {
        let name = name.into();
        let mut map = self.datasets.write();
        if map.contains_key(&name) {
            return Err(MrError::DatasetExists(name));
        }
        map.insert(name, dataset);
        Ok(())
    }

    /// Store, replacing any existing dataset (for iterative experiments).
    pub fn put_overwrite(&self, name: impl Into<String>, dataset: Dataset) {
        self.datasets.write().insert(name.into(), dataset);
    }

    /// Fetch a dataset by name (cheap: partitions are shared).
    pub fn get(&self, name: &str) -> Result<Dataset> {
        self.datasets
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MrError::NoSuchDataset(name.to_string()))
    }

    /// Remove a dataset.
    pub fn remove(&self, name: &str) -> Result<Dataset> {
        self.datasets
            .write()
            .remove(name)
            .ok_or_else(|| MrError::NoSuchDataset(name.to_string()))
    }

    /// Whether a dataset exists.
    pub fn contains(&self, name: &str) -> bool {
        self.datasets.read().contains_key(name)
    }

    /// Names of all stored datasets.
    pub fn list(&self) -> Vec<String> {
        self.datasets.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::schema::{ColumnType, Field};
    use relation::{codec, row};

    fn schema() -> Schema {
        Schema::timestamped(vec![Field::new("UserId", ColumnType::Str)])
    }

    fn sample() -> Dataset {
        Dataset::partitioned(
            schema(),
            vec![
                vec![row![1i64, "u1"], row![2i64, "u2"]],
                vec![row![3i64, "u3"]],
            ],
        )
    }

    #[test]
    fn put_get_scan() {
        let dfs = Dfs::new();
        dfs.put("logs", sample()).unwrap();
        let ds = dfs.get("logs").unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.scan()[2], row![3i64, "u3"]);
    }

    #[test]
    fn duplicate_put_rejected_but_overwrite_allowed() {
        let dfs = Dfs::new();
        dfs.put("x", sample()).unwrap();
        assert!(matches!(
            dfs.put("x", sample()),
            Err(MrError::DatasetExists(_))
        ));
        dfs.put_overwrite("x", Dataset::single(schema(), vec![]));
        assert_eq!(dfs.get("x").unwrap().len(), 0);
    }

    #[test]
    fn missing_dataset_errors() {
        let dfs = Dfs::new();
        assert!(matches!(dfs.get("nope"), Err(MrError::NoSuchDataset(_))));
        assert!(dfs.remove("nope").is_err());
    }

    #[test]
    fn rows_survive_text_codec_round_trip() {
        // DFS contents must be representable as text extents.
        let ds = sample();
        let text = codec::encode_rows(&ds.scan());
        let back = codec::decode_rows(&text, &ds.schema).unwrap();
        assert_eq!(back, ds.scan());
    }

    #[test]
    fn iter_matches_scan_order() {
        let ds = sample();
        let borrowed: Vec<Row> = ds.iter().cloned().collect();
        assert_eq!(borrowed, ds.scan());
        assert_eq!(ds.iter().count(), ds.len());
    }

    #[test]
    fn stats_reflect_contents() {
        let stats = sample().stats();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.distinct_of("UserId"), Some(3));
    }

    #[test]
    fn extents_are_framed_and_verify_clean() {
        let ds = sample();
        assert_eq!(ds.extents().len(), 2);
        // Well-typed rows get the native binary stored form.
        assert!(ds.binary_extent(0).is_some());
        assert!(ds.binary_extent(1).is_some());
        ds.verify().unwrap();
        ds.verify_extent(0).unwrap();
        // Indices past the extent list pass vacuously rather than panic.
        ds.verify_extent(99).unwrap();
    }

    #[test]
    fn damaged_extent_fails_verification() {
        let ds = sample();
        // Rebuild a dataset that keeps the original stored extents but
        // damages the decoded working copy (bit rot under unchanged
        // frames).
        let mut parts: Vec<Vec<Row>> = ds.partitions.as_ref().clone();
        parts[1].pop();
        let damaged = Dataset {
            schema: ds.schema.clone(),
            partitions: Arc::new(parts),
            extents: ds.extents.clone(),
        };
        assert!(damaged.verify_extent(0).is_ok());
        let err = damaged.verify_extent(1).unwrap_err();
        assert!(matches!(err, MrError::Corrupt { .. }), "{err}");
        assert!(damaged.verify().is_err());
    }

    #[test]
    fn damaged_binary_bytes_fail_verification() {
        let ds = sample();
        // Flip one byte inside the stored binary extent while leaving the
        // decoded rows intact: the per-column frames must catch it.
        let mut extents: Vec<StoredExtent> = ds.extents().to_vec();
        let StoredExtent::Binary { bytes, frame } = extents[0].clone() else {
            panic!("sample extent 0 should be binary");
        };
        let mut damaged_bytes = bytes.as_ref().clone();
        let mid = damaged_bytes.len() / 2;
        damaged_bytes[mid] ^= 0xFF;
        extents[0] = StoredExtent::Binary {
            bytes: Arc::new(damaged_bytes),
            frame,
        };
        let damaged = Dataset {
            schema: ds.schema.clone(),
            partitions: ds.partitions.clone(),
            extents: Arc::new(extents),
        };
        let err = damaged.verify_extent(0).unwrap_err();
        assert!(matches!(err, MrError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn ill_typed_rows_fall_back_to_legacy_framing() {
        let ds = Dataset::partitioned(
            schema(),
            vec![vec![row![1i64, "ok"]], vec![row!["not-a-time", "u"]]],
        );
        assert!(ds.binary_extent(0).is_some());
        assert!(ds.binary_extent(1).is_none());
        assert!(matches!(ds.extents()[1], StoredExtent::Legacy(_)));
        // Legacy extents still verify via their row frame.
        ds.verify().unwrap();
    }

    #[test]
    fn unframed_datasets_skip_verification() {
        let ds = Dataset::partitioned_unframed(schema(), vec![vec![row![1i64, "u1"]]]);
        assert!(ds.extents().is_empty());
        ds.verify().unwrap();
    }

    #[test]
    fn check_validates_all_partitions() {
        let bad = Dataset::partitioned(
            schema(),
            vec![vec![row![1i64, "ok"]], vec![row!["not-a-time", "u"]]],
        );
        assert!(bad.check().is_err());
    }
}
