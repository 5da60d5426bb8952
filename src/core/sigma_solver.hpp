#pragma once
/// \file sigma_solver.hpp
/// Solver for the entropic-pressure equation, paper eq. (9):
///
///   alpha * (tr((grad u)^2) + tr^2(grad u)) = Sigma/rho - alpha * div(grad(Sigma)/rho)
///
/// Because alpha ∝ dx^2, the discrete system is uniformly well-conditioned
/// and grid-point-local; warm-started Jacobi or Gauss–Seidel converges in
/// ≤ 5 sweeps per flux computation (§5.2).  The elliptic operator uses the
/// paper's 7-point stencil.  Its face coefficient is the arithmetic mean of
/// the two cells' *reciprocal* densities, 0.5*(1/rho_i + 1/rho_j) — i.e.
/// 1/rho_face with rho_face the harmonic mean of the cell densities.  That
/// is the intended discretization (not an arithmetic-mean face density):
/// it is division-free given the precomputed 1/rho field and keeps the
/// operator symmetric positive definite for rho > 0.

#include <array>
#include <vector>

#include "common/exec.hpp"
#include "common/field3.hpp"
#include "common/precision.hpp"

namespace igr::core {

/// Boundary handling for Sigma's ghost layers during sweeps/reconstruction.
enum class SigmaBc { kPeriodic, kNeumann };

/// Per-face Sigma ghost kinds, ordered like mesh::Face (xlo, xhi, ylo, yhi,
/// zlo, zhi; face index = 2*axis + side).  Mixed-BC cases wrap Sigma across
/// their periodic state faces and clamp (zero-gradient) everywhere else —
/// the per-face refinement of the historical one-global-SigmaBc scheme.
/// Implicitly constructible from a single SigmaBc so uniform-BC call sites
/// (and the existing test suite) read unchanged.
struct SigmaBcSpec {
  std::array<SigmaBc, 6> face{};

  SigmaBcSpec() : SigmaBcSpec(SigmaBc::kPeriodic) {}
  // NOLINTNEXTLINE(google-explicit-constructor): uniform broadcast is the
  // intended shorthand (`fill_sigma_ghosts(f, SigmaBc::kNeumann)`).
  SigmaBcSpec(SigmaBc uniform) { face.fill(uniform); }

  [[nodiscard]] SigmaBc side(int axis, int s) const {
    return face[static_cast<std::size_t>(2 * axis + s)];
  }
  [[nodiscard]] bool all(SigmaBc b) const {
    for (const SigmaBc f : face)
      if (f != b) return false;
    return true;
  }
  friend bool operator==(const SigmaBcSpec& a, const SigmaBcSpec& b) {
    return a.face == b.face;
  }
};

/// Relaxation orderings for the eq. (9) sweeps.
enum class SweepKind {
  /// Double-buffered simultaneous update.  Embarrassingly parallel and
  /// decomposition-exact (rank count cannot change the bits), at the cost
  /// of one extra N-sized buffer and a slightly slower contraction rate.
  kJacobi,
  /// In-place two-color (red–black) Gauss–Seidel: each half-pass updates
  /// one parity of (i+j+k) and is dependency-free, so it parallelizes
  /// across rows and planes and vectorizes within a row.  Same fixed point
  /// as the serial lexicographic ordering (tests/test_sigma_solver.cpp
  /// checks this against a test-local lexicographic sweep).
  kRedBlack,
};

/// Fill ghost layers of `sigma` (wrap for periodic, clamp for Neumann).
/// `layers` limits the fill depth: relaxation sweeps only consume one ghost
/// layer, while the final reconstruction needs all of them.
template <class S>
void fill_sigma_ghosts(common::Field3<S>& sigma, SigmaBcSpec bc,
                       int layers = -1);

/// Per-axis, side-maskable variant for distributed drivers (physical faces
/// only; interior faces come from halo exchange).
template <class S>
void fill_sigma_ghosts_axis(common::Field3<S>& sigma, SigmaBcSpec bc,
                            int axis, std::array<bool, 2> sides,
                            int layers = -1);

// --- Row-range building blocks (the only relaxation kernels) ---
// A full sweep (ghost fill + both red–black colors, or one Jacobi pass)
// decomposes into per-plane slots whose reads only ever see the values the
// phased schedule would show them, so a k-skewed wavefront of these calls is
// bitwise-identical to sigma_sweep_once, which runs the same kernels over
// all planes at once.  Both run in one team whose members each own a fixed
// contiguous range of rows (Team::chunk over y); see IgrSolver3D's fused
// pipeline for the wavefront's slot schedule and its dependency argument.

/// x ghost columns, `layers` deep on the unmasked sides, of rows
/// [j0, j1) of plane k: fill_sigma_ghosts' axis-0 pass restricted to those
/// rows (each reads only its own row).
template <class S>
void fill_sigma_xghosts(common::Field3<S>& sigma, SigmaBcSpec bc,
                        std::array<bool, 2> sides, int k, int j0, int j1,
                        int layers = -1);

/// y ghost rows of one side (0 = low, 1 = high) of plane k over x ∈
/// [i0, i1): the axis-1 pass restricted to one plane and x span.  Over the
/// widened span [-layers, nx + layers) the sources' x ghosts must already
/// be filled, as in the phased fill.
template <class S>
void fill_sigma_yghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int side,
                        int k, int i0, int i1, int layers = -1);

/// Rows [j0, j1) (y ghost rows allowed) of the z ghost planes of one side,
/// over the x span widened by the fill depth: the axis-2 pass restricted to
/// those rows.
template <class S>
void fill_sigma_zghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int side,
                        int j0, int j1, int layers = -1);

/// Per-member scratch of the row kernels below, allocated once per member
/// per team launch (not per plane or color).  Members: whole-row tentative
/// values and one color's compacted values; copies of the two
/// neighbour-owned sigma rows a member's edge rows read; for converting
/// policies the five per-visit transverse rows and the plane row cache
/// (2 fields x (ny + 2) rows at compute precision).
template <class Policy>
struct SigmaRowScratch {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  SigmaRowScratch(int nx, int ny);

  std::vector<C> tmp;
  std::vector<C> vals;
  std::vector<S> edge_raw;
  std::vector<C> edge;
  std::vector<C> aux;
  std::vector<int> held;
  std::vector<C> rows;
};

/// One red–black half-pass updating parity (i+j+k) ≡ `color` (mod 2) of
/// planes k ∈ [k0, k1), in place, for this member's rows (team.chunk over
/// y).  Reads only the opposite parity (planes k0-1..k1, rows j∓1) plus
/// src/inv_rho.  Of the two rows next to its range that other members own
/// it reads only the opposite-parity lanes, which their concurrent
/// half-pass over the same plane does not store — so members need no
/// ordering within a plane slot, only the caller's between wavefronts.
/// Converting policies (FP16/32, BF16/32) read through per-row compute-
/// precision scratch filled by the batched conversion lanes; identity
/// storage reads the field rows directly.
template <class Policy>
void sigma_relax_planes(common::Field3<typename Policy::storage_t>& sigma,
                        const common::Field3<typename Policy::storage_t>& src,
                        const common::Field3<typename Policy::storage_t>& inv_rho,
                        typename Policy::compute_t alpha,
                        typename Policy::compute_t dx,
                        typename Policy::compute_t dy,
                        typename Policy::compute_t dz, int color, int k0,
                        int k1, const common::ExecSpace::Team& team,
                        SigmaRowScratch<Policy>& scratch);

/// One Jacobi pass of planes k ∈ [k0, k1) for this member's rows: reads
/// `in` (planes k0-1..k1, rows j∓1, the rim ghosts of its rows), writes
/// `out`.  Neighbour-owned rows of `in` are read over x ∈ [0, nx) only
/// (their owners may be filling the x ghosts).  The caller owns the
/// double-buffer bookkeeping (sigma_sweep_once swaps whole fields; a
/// pipelined caller alternates buffers per sweep and swaps once at the end).
template <class Policy>
void sigma_jacobi_planes(common::Field3<typename Policy::storage_t>& out,
                         const common::Field3<typename Policy::storage_t>& in,
                         const common::Field3<typename Policy::storage_t>& src,
                         const common::Field3<typename Policy::storage_t>& inv_rho,
                         typename Policy::compute_t alpha,
                         typename Policy::compute_t dx,
                         typename Policy::compute_t dy,
                         typename Policy::compute_t dz, int k0, int k1,
                         const common::ExecSpace::Team& team,
                         SigmaRowScratch<Policy>& scratch);

/// Relaxation sweeps for eq. (9).
///
/// \param sigma    In: warm start (previous Sigma).  Out: updated solution.
/// \param scratch  Jacobi double-buffer; unused for Gauss–Seidel (the paper:
///                 "An additional copy of Sigma is required if Jacobi sweeps
///                 are used").
/// \param src      Right-hand side alpha*(tr((grad u)^2) + tr^2(grad u)).
/// \param inv_rho  Reciprocal density with valid ghost layers.
/// \tparam Policy  Precision policy; fields hold storage_t, arithmetic is
///                 performed at compute_t.
template <class Policy>
void sigma_solve(common::Field3<typename Policy::storage_t>& sigma,
                 common::Field3<typename Policy::storage_t>& scratch,
                 const common::Field3<typename Policy::storage_t>& src,
                 const common::Field3<typename Policy::storage_t>& inv_rho,
                 typename Policy::compute_t alpha,
                 typename Policy::compute_t dx,
                 typename Policy::compute_t dy,
                 typename Policy::compute_t dz,
                 int sweeps, SweepKind kind, SigmaBcSpec bc,
                 const common::ExecSpace& exec = {});

/// A single relaxation pass using the *current* ghost values of `sigma`
/// (no internal ghost fill).  The periodic-z phased schedule and the
/// distributed driver call this between ghost fills / halo exchanges;
/// `sigma_solve` composes it with `fill_sigma_ghosts`.
///
/// One team launch per pass, running the row kernels above over planes
/// [0, nz): red–black relaxes color 0 of every plane, meets at one
/// team barrier, then relaxes color 1; Jacobi runs one sigma_jacobi_planes
/// pass into `scratch` and swaps the fields after the team.  A color pass
/// reads only the other color and Jacobi writes out of place, so the
/// result is independent of the team width.
///
/// `inv_rho` is the reciprocal density (with ghosts); face coefficients are
/// arithmetic means of 1/rho (equivalently: 1/rho_face with a harmonic-mean
/// face density), which keeps the stencil free of divisions — the CPU
/// analogue of the fused GPU kernel's reciprocal arithmetic.  The only
/// division left is the diagonal solve, one per cell.
template <class Policy>
void sigma_sweep_once(common::Field3<typename Policy::storage_t>& sigma,
                      common::Field3<typename Policy::storage_t>& scratch,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz, SweepKind kind,
                      const common::ExecSpace& exec = {});

/// Max-norm residual of the discrete eq. (9); used by tests and adaptive
/// sweep-count studies.
template <class Policy>
double sigma_residual(const common::Field3<typename Policy::storage_t>& sigma,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz);

}  // namespace igr::core
