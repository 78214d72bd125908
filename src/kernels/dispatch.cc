/**
 * @file
 * Backend detection and dispatch for the data-plane kernels.
 *
 * The active table is a single pointer: ops() costs one load, and the
 * kernels themselves are reached through the table's function pointers
 * — no per-call CPUID or feature branches. The pointer starts at the
 * scalar table (safe under any static-initialization order) and is
 * upgraded once during startup to the best available backend.
 */

#include "kernels/tables.hh"

namespace tvarak::kernels {

namespace detail {
constinit const KernelOps *gActive = &kScalarOps;
}  // namespace detail

namespace {

/** The AVX2 backend also uses the SSE4.2 crc32 instruction. */
bool
cpuHasAvx2()
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("sse4.2") != 0;
#else
    return false;
#endif
}

struct DispatchInit {
    DispatchInit() { selectBackend(bestBackend()); }
};

const DispatchInit gDispatchInit;

}  // namespace

const KernelOps &
opsFor(Backend b)
{
    return b == Backend::Avx2 ? kAvx2Ops : kScalarOps;
}

const char *
backendName(Backend b)
{
    return opsFor(b).name;
}

bool
backendAvailable(Backend b)
{
    static const bool haveAvx2 = cpuHasAvx2();
    return b == Backend::Scalar || haveAvx2;
}

Backend
activeBackend()
{
    return detail::gActive == &kAvx2Ops ? Backend::Avx2
                                        : Backend::Scalar;
}

Backend
bestBackend()
{
    return backendAvailable(Backend::Avx2) ? Backend::Avx2
                                           : Backend::Scalar;
}

bool
selectBackend(Backend b)
{
    if (!backendAvailable(b))
        return false;
    detail::gActive = &opsFor(b);
    return true;
}

}  // namespace tvarak::kernels
