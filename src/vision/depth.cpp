#include "vision/depth.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace cimnav::vision {

void render_depth_scan_into(const CameraIntrinsics& k, const core::Pose& pose,
                            const RaycastFn& raycast,
                            const DepthRenderOptions& opt, core::Rng* rng,
                            DepthScan& scan) {
  CIMNAV_REQUIRE(opt.pixel_stride >= 1, "pixel stride must be >= 1");
  CIMNAV_REQUIRE(opt.max_range_m > 0.0, "max range must be positive");
  CIMNAV_REQUIRE(opt.noise_sigma_m == 0.0 || rng != nullptr,
                 "noisy rendering needs an rng");
  scan.pixels.clear();
  scan.intrinsics = k;
  scan.mount_pitch_rad = opt.mount_pitch_rad;
  for (int v = 0; v < k.height; v += opt.pixel_stride) {
    for (int u = 0; u < k.width; u += opt.pixel_stride) {
      const core::Vec3 dir_cam = pixel_ray(k, u, v);
      const core::Vec3 dir_world =
          core::Mat3::rotation_z(pose.yaw) *
          apply_mount_pitch(camera_to_body(dir_cam), opt.mount_pitch_rad);
      const auto t = raycast(pose.position, dir_world);
      if (!t) continue;
      // The ray parameter t is metric distance (unit direction); depth is
      // the camera-z component of the hit.
      double depth = *t * dir_cam.z;
      if (depth <= 0.0 || depth > opt.max_range_m) continue;
      if (opt.noise_sigma_m > 0.0)
        depth = std::max(1e-3, depth + rng->normal(0.0, opt.noise_sigma_m));
      scan.pixels.push_back(DepthPixel{u, v, depth});
    }
  }
}

void subsample_scan_into(const DepthScan& scan, std::size_t n, core::Rng& rng,
                         DepthScan& out) {
  out.intrinsics = scan.intrinsics;
  out.mount_pitch_rad = scan.mount_pitch_rad;
  if (scan.pixels.size() <= n) {
    out.pixels = scan.pixels;  // copy-assign reuses out's capacity
    return;
  }
  out.pixels.clear();
  // Keyed scratch: the permutation indices are consumed immediately, so
  // one warm buffer per thread keeps the hot path allocation-free.
  thread_local std::vector<std::size_t> perm;
  rng.permutation_into(scan.pixels.size(), perm);
  out.pixels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.pixels.push_back(scan.pixels[perm[i]]);
}

}  // namespace cimnav::vision
