package treemine

// Streaming forest mining: the same Multiple_Tree_Mining results over
// corpora that never fit in memory. Trees arrive through a TreeIterator
// (a Newick scanner, a phyloio TreeSource, a generator), are mined in
// bounded batches into mergeable SupportShards, and partial shards can
// be checkpointed through the store package and resumed — see the
// "Scaling" section of the README.

import (
	"context"
	"io"

	"treemine/internal/core"
	"treemine/internal/newick"
)

// TreeIterator yields trees one at a time; Next returns io.EOF after
// the last tree.
type TreeIterator = core.TreeIterator

// StreamConfig tunes MineForestStreamShard (workers, batch size,
// checkpointing, resume).
type StreamConfig = core.StreamConfig

// SupportShard is a mergeable partial support table — the unit of
// streamed, sharded and distributed forest mining.
type SupportShard = core.SupportShard

// ShardItem is one support entry of a shard snapshot, as serialized by
// the store's v3 checkpoint format.
type ShardItem = core.ShardItem

// NewSupportShard returns an empty shard mining under opts.
func NewSupportShard(opts ForestOptions) *SupportShard {
	return core.NewSupportShard(opts)
}

// RestoreShard validates and rebuilds a shard from snapshot data (the
// inverse of SupportShard.Snapshot).
func RestoreShard(opts ForestOptions, trees int, labels []string, items []ShardItem) (*SupportShard, error) {
	return core.RestoreShard(opts, trees, labels, items)
}

// NewSliceIterator adapts an in-memory forest to TreeIterator.
func NewSliceIterator(trees []*Tree) TreeIterator { return core.NewSliceIterator(trees) }

// NewNewickScanner returns a TreeIterator over a stream of
// semicolon-terminated Newick trees, buffering one tree at a time.
func NewNewickScanner(r io.Reader) TreeIterator { return newick.NewScanner(r) }

// MineForestStream is MineForest over a tree stream: identical output,
// memory bounded by two rounds of workers × batch trees (the round
// mining and the one read ahead) plus the support table.
// workers ≤ 0 selects GOMAXPROCS.
func MineForestStream(it TreeIterator, opts ForestOptions, workers int) ([]FrequentPair, error) {
	return core.MineForestStream(it, opts, workers)
}

// MineForestStreamShard is the configurable streaming core: it returns
// the accumulated shard (instead of finalizing) and supports
// checkpoint/resume through StreamConfig.
func MineForestStreamShard(it TreeIterator, opts ForestOptions, cfg StreamConfig) (*SupportShard, error) {
	return core.MineForestStreamShard(it, opts, cfg)
}

// MineForestStreamCtx is MineForestStream under a context: cancellation
// is observed between trees, and the error is context.Canceled (or
// DeadlineExceeded) once the current batch drains.
func MineForestStreamCtx(ctx context.Context, it TreeIterator, opts ForestOptions, workers int) ([]FrequentPair, error) {
	return core.MineForestStreamCtx(ctx, it, opts, workers)
}

// MineForestStreamShardCtx is MineForestStreamShard under a context. On
// cancellation the returned shard covers an exact prefix of the stream
// (SupportShard.Trees names its length), so saving it as a checkpoint
// and resuming with SkipTrees = Trees yields results identical to an
// uninterrupted run. Worker panics surface as errors, not crashes.
func MineForestStreamShardCtx(ctx context.Context, it TreeIterator, opts ForestOptions, cfg StreamConfig) (*SupportShard, error) {
	return core.MineForestStreamShardCtx(ctx, it, opts, cfg)
}
