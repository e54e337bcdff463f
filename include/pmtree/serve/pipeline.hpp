// PipelineOptions: the stage-attribution dial of the Server/Forest batch
// executor (DESIGN.md §14).
//
// There is one executor. While the tick loop cuts batches, its worker
// threads coalesce, observe (for slots with an epoch controller, in cut
// order), color-resolve and arena-touch the cuts in fixed chunks of 32; at
// the round barrier they finish the last chunk, and every lane's
// EngineSession is fed its cuts in cut order and drained, PALM-style:
// every thread works every stage. Setting `workers` picks that executor's
// thread count and adds the wall-time "pipeline" metrics section;
// responses are bit-identical at every setting.
#pragma once

namespace pmtree::serve {

struct PipelineOptions {
  /// Executor threads with stage attribution. 0 runs the executor on the
  /// options' `workers` threads and reports no "pipeline" section; any
  /// value >= 1 runs it on this many threads (feeds and drains use at most
  /// one per lane) and adds the section. Only wall-clock and that section
  /// change.
  unsigned workers = 0;
};

}  // namespace pmtree::serve
