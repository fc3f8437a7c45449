/**
 * @file
 * The served workloads: an in-process lp::server::Server (2 shards)
 * driven open-loop by one driver thread over 4 connections.
 */

#ifndef PERFBENCH_SERVED_HH
#define PERFBENCH_SERVED_HH

#include "perfbench/src/common.hh"

namespace perfbench
{

/** served_update: YCSB-A, 50% GET / 50% PUT, zipfian 0.99. */
Report runServedUpdate(const Options &opt);

/** served_read_scan: 90% GET / 10% SCAN, no mutations. */
Report runServedReadScan(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_SERVED_HH
