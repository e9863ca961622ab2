#include "src/base/host_shard.h"

namespace ufork {

constinit thread_local int tls_host_shard = -1;

}  // namespace ufork
