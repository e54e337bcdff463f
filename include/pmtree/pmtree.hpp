// Umbrella header: the whole pmtree public API.
//
// pmtree reproduces "Optimal Tree Access by Elementary and Composite
// Templates in Parallel Memory Systems" (Auletta, Das, De Vivo, Pinotti,
// Scarano — IPPS/IPDPS 2001): conflict-free and conflict-optimal mappings
// of complete binary trees onto parallel memory modules, the templates
// they serve, the analysis machinery that verifies the paper's theorems,
// a cycle-accurate memory-system engine, and the motivating applications.
#pragma once

#include "pmtree/analysis/bounds.hpp"
#include "pmtree/analysis/cost.hpp"
#include "pmtree/analysis/load_balance.hpp"
#include "pmtree/analysis/profile.hpp"
#include "pmtree/analysis/verify.hpp"
#include "pmtree/apps/dictionary.hpp"
#include "pmtree/array/array2d.hpp"
#include "pmtree/binomial/binomial_tree.hpp"
#include "pmtree/array/array_mapping.hpp"
#include "pmtree/apps/parallel_heap.hpp"
#include "pmtree/apps/range_index.hpp"
#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/engine/arrival.hpp"
#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/histogram.hpp"
#include "pmtree/engine/metrics.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/combinators.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/qary/qary_mapping.hpp"
#include "pmtree/qary/qary_templates.hpp"
#include "pmtree/qary/qary_tree.hpp"
#include "pmtree/pms/workload.hpp"
#include "pmtree/templates/enumerate.hpp"
#include "pmtree/templates/instance.hpp"
#include "pmtree/templates/range_cover.hpp"
#include "pmtree/templates/sampler.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/parallel.hpp"
#include "pmtree/util/rng.hpp"
#include "pmtree/util/stats.hpp"
#include "pmtree/util/table.hpp"
