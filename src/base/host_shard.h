// Host-shard execution context (DESIGN.md §4.11).
//
// When the scheduler runs sharded, each shard's worker thread publishes its shard index here
// so lower layers (notably the FrameAllocator's per-shard free-list caches) can pick the
// right shard-local structure without a dependency on the scheduler layer. The coordinator
// and the boot path read -1 and fall back to the global (locked) structures.
#ifndef UFORK_SRC_BASE_HOST_SHARD_H_
#define UFORK_SRC_BASE_HOST_SHARD_H_

namespace ufork {

// >= 0: index of the shard whose worker thread is executing (inside Scheduler::Run).
// -1: coordinator, boot, or any thread outside a sharded run.
// constinit: constant-initialised, so accesses need no TLS init wrapper. Under g++ 12 with
// -fsanitize=address,undefined the wrapper path reports a store to a null pointer.
extern constinit thread_local int tls_host_shard;

}  // namespace ufork

#endif  // UFORK_SRC_BASE_HOST_SHARD_H_
