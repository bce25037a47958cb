// Depth-scan rendering and back-projection.
//
// Rendering is generic over a ray-cast callable so the vision module stays
// independent of the scene representation; the filter layer wires it to
// map::Scene::raycast. A scan is rendered on a pixel stride and then
// randomly decimated (the paper evaluates "hundreds of non-zero depth
// pixels", not the full frame). Both steps write into caller-owned scans
// that keep their capacity, and the likelihood back-projects one pixel at
// a time through pixel_to_world.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "core/vec.hpp"
#include "vision/camera.hpp"

namespace cimnav::vision {

/// A sparse depth scan: valid pixels with metric depths. Carries the rigid
/// mount pitch it was rendered with so back-projection stays consistent.
struct DepthScan {
  CameraIntrinsics intrinsics;
  double mount_pitch_rad = 0.0;
  std::vector<DepthPixel> pixels;
};

/// Ray-cast callable: world origin + world unit direction -> hit distance.
using RaycastFn = std::function<std::optional<double>(const core::Vec3&,
                                                      const core::Vec3&)>;

/// Rendering options.
struct DepthRenderOptions {
  int pixel_stride = 4;        ///< subsample every k-th pixel in u and v
  double max_range_m = 10.0;   ///< sensor range cutoff
  double noise_sigma_m = 0.0;  ///< additive Gaussian depth noise
  double mount_pitch_rad = 0.0;  ///< rigid downward camera tilt
};

/// Renders a depth scan from `pose` (body frame x-forward) through the
/// given ray caster into `scan` (pixel capacity kept across calls).
/// Requires rng when noise_sigma_m > 0.
void render_depth_scan_into(const CameraIntrinsics& k, const core::Pose& pose,
                            const RaycastFn& raycast,
                            const DepthRenderOptions& opt, core::Rng* rng,
                            DepthScan& scan);

/// Back-projects one scan pixel into world coordinates for a pose whose
/// rotation has been hoisted (`rot` = Mat3::rotation_z(pose.yaw)) — the
/// allocation-free inner step of every likelihood evaluation.
inline core::Vec3 pixel_to_world(const DepthScan& scan, const core::Mat3& rot,
                                 const core::Vec3& position,
                                 const DepthPixel& px) {
  const core::Vec3 cam = back_project(scan.intrinsics, px);
  return rot * apply_mount_pitch(camera_to_body(cam), scan.mount_pitch_rad) +
         position;
}

/// Randomly keeps at most `n` pixels of a scan (likelihood decimation),
/// writing them into `out` (capacity kept; `out` must not alias `scan`).
/// A scan of at most `n` pixels is copied whole and draws nothing.
void subsample_scan_into(const DepthScan& scan, std::size_t n, core::Rng& rng,
                         DepthScan& out);

}  // namespace cimnav::vision
