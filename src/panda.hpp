// Umbrella header for the PANDA library.
//
// PANDA is a reproduction of "PANDA: Extreme Scale Parallel K-Nearest
// Neighbor on Distributed Architectures" (Patwary et al., 2016): a
// distributed kd-tree for exact k-nearest-neighbor search, with a
// single-node three-phase parallel tree build, a five-stage
// distributed query protocol, an in-process SPMD cluster runtime, and
// the baselines the paper evaluates against — all behind the
// panda::Index facade (api/index.hpp). See README.md for a quickstart
// and DESIGN.md for the architecture.
#pragma once

#include "api/index.hpp"
#include "baselines/ann_style.hpp"
#include "baselines/brute_force.hpp"
#include "baselines/buffered_tree.hpp"
#include "baselines/flann_style.hpp"
#include "baselines/local_trees.hpp"
#include "baselines/scatter.hpp"
#include "baselines/simple_tree.hpp"
#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sampling.hpp"
#include "common/timer.hpp"
#include "core/kdtree.hpp"
#include "core/knn_heap.hpp"
#include "core/median.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/cosmology.hpp"
#include "data/dayabay.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "data/plasma.hpp"
#include "data/point_set.hpp"
#include "data/sdss.hpp"
#include "dist/all_knn.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/dist_query.hpp"
#include "dist/global_tree.hpp"
#include "dist/radius_query.hpp"
#include "dist/redistribute.hpp"
#include "ml/clustering.hpp"
#include "ml/knn_classifier.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"
#include "net/cost_model.hpp"
#include "net/mailbox.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/backend.hpp"
#include "serve/query_service.hpp"
#include "serve/serve_stats.hpp"
#include "simd/distance.hpp"
#include "simd/interval_search.hpp"
