//! Runtime configuration knobs.

use std::fmt;

/// A runtime configuration knob set to an illegal value.
///
/// Produced by [`RuntimeConfig::validate`]; the engine layer surfaces this
/// as a typed build-time error instead of silently clamping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending knob (`"shards"`, `"batch_size"`,
    /// `"channel_capacity"`).
    pub field: &'static str,
    /// The rejected value.
    pub(crate) value: usize,
    /// The smallest legal value.
    pub(crate) min: usize,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "runtime config: `{}` must be >= {} (got {})",
            self.field, self.min, self.value
        )
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the sharded parallel runtime.
///
/// * `shards` — number of independent executors (one OS thread each). The
///   join-key space is hash-partitioned over them.
/// * `batch_size` — steps per shard chunk. A step is an arrival routed to
///   the shard or a watermark advance; the session queues each shard's
///   steps and sends them as one chunk once `batch_size` are queued,
///   amortising channel synchronisation over many steps.
/// * `channel_capacity` — bound (in chunks) of each shard's ingestion
///   channel. A full channel blocks the feeder (backpressure) instead of
///   queueing unboundedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of shards / worker threads (≥ 1).
    pub shards: usize,
    /// Steps (arrivals and watermark advances) per shard chunk (≥ 1).
    pub batch_size: usize,
    /// Per-shard channel bound, in chunks (≥ 1).
    pub channel_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_size: 64,
            channel_capacity: 32,
        }
    }
}

impl RuntimeConfig {
    /// A configuration with the given shard count and default batching.
    pub fn with_shards(shards: usize) -> Self {
        RuntimeConfig {
            shards,
            ..RuntimeConfig::default()
        }
    }

    /// Set the number of steps per shard chunk.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Set the per-shard channel bound (in chunks).
    pub fn with_channel_capacity(mut self, channel_capacity: usize) -> Self {
        self.channel_capacity = channel_capacity;
        self
    }

    /// Clamp every knob to its minimum legal value.
    pub(crate) fn normalized(mut self) -> Self {
        self.shards = self.shards.max(1);
        self.batch_size = self.batch_size.max(1);
        self.channel_capacity = self.channel_capacity.max(1);
        self
    }

    /// Check every knob, returning a typed error naming the first illegal
    /// one (every knob must be ≥ 1) instead of clamping it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let check = |field: &'static str, value: usize| {
            if value < 1 {
                Err(ConfigError {
                    field,
                    value,
                    min: 1,
                })
            } else {
                Ok(())
            }
        };
        check("shards", self.shards)?;
        check("batch_size", self.batch_size)?;
        check("channel_capacity", self.channel_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_parallel_and_legal() {
        let config = RuntimeConfig::default();
        assert!(config.shards >= 1);
        assert!(config.batch_size >= 1);
        assert!(config.channel_capacity >= 1);
    }

    #[test]
    fn builders_and_normalization() {
        let config = RuntimeConfig::with_shards(4)
            .with_batch_size(0)
            .with_channel_capacity(0)
            .normalized();
        assert_eq!(config.shards, 4);
        assert_eq!(config.batch_size, 1);
        assert_eq!(config.channel_capacity, 1);
        assert_eq!(
            RuntimeConfig {
                shards: 0,
                batch_size: 7,
                channel_capacity: 9,
            }
            .normalized()
            .shards,
            1
        );
    }
}
