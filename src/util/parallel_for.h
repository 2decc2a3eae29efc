// Fork-join loop for UDFs with internal parallelism.
#pragma once

#include <functional>

namespace plumber {

// Runs fn(i) for i in [0, n) across up to `parallelism` threads created
// on the spot (the caller's thread is one of them); blocks until done.
void ParallelFor(int n, int parallelism, const std::function<void(int)>& fn);

}  // namespace plumber
