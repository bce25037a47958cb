// Unit tests for the scene generator, map compilation, camera model and
// depth-scan rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "map/map_model.hpp"
#include "map/scene.hpp"
#include "vision/camera.hpp"
#include "vision/depth.hpp"

namespace cimnav {
namespace {

using core::Pose;
using core::Rng;
using core::Vec3;

TEST(Box, SurfaceAreaOfUnitCube) {
  const map::Box b{{0, 0, 0}, {0.5, 0.5, 0.5}};
  EXPECT_DOUBLE_EQ(b.surface_area(), 6.0);
}

TEST(Box, SurfaceSamplesLieOnSurface) {
  const map::Box b{{1, 2, 3}, {0.5, 0.7, 0.3}};
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const Vec3 p = b.sample_surface(rng);
    const Vec3 d = p - b.center;
    // At least one coordinate must sit exactly on a face.
    const bool on_face = std::abs(std::abs(d.x) - 0.5) < 1e-12 ||
                         std::abs(std::abs(d.y) - 0.7) < 1e-12 ||
                         std::abs(std::abs(d.z) - 0.3) < 1e-12;
    EXPECT_TRUE(on_face);
    EXPECT_LE(std::abs(d.x), 0.5 + 1e-12);
    EXPECT_LE(std::abs(d.y), 0.7 + 1e-12);
    EXPECT_LE(std::abs(d.z), 0.3 + 1e-12);
  }
}

TEST(Box, RayIntersectionFrontFace) {
  const map::Box b{{5, 0, 0}, {1, 1, 1}};
  const auto t = b.intersect({0, 0, 0}, {1, 0, 0});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 4.0, 1e-12);
}

TEST(Box, RayMissesOffAxis) {
  const map::Box b{{5, 0, 0}, {1, 1, 1}};
  EXPECT_FALSE(b.intersect({0, 3, 0}, {1, 0, 0}).has_value());
  EXPECT_FALSE(b.intersect({0, 0, 0}, {-1, 0, 0}).has_value());
}

TEST(Box, RayFromInsideHitsExitFace) {
  const map::Box b{{0, 0, 0}, {1, 1, 1}};
  const auto t = b.intersect({0, 0, 0}, {1, 0, 0});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 1e-12);
}

TEST(Scene, GenerateProducesEnclosedRoom) {
  map::SceneConfig cfg;
  cfg.room_size = {4, 3, 2.5};
  Rng rng(7);
  const map::Scene s = map::Scene::generate(cfg, rng);
  // floor + 4 walls + furniture + clutter
  EXPECT_EQ(static_cast<int>(s.boxes().size()),
            5 + cfg.furniture_count + cfg.clutter_count);
  EXPECT_EQ(s.interior_min(), Vec3(0, 0, 0));
  EXPECT_EQ(s.interior_max(), Vec3(4, 3, 2.5));
}

TEST(Scene, FurnitureKeepsUpperHalfFlyable) {
  map::SceneConfig cfg;
  cfg.room_size = {4, 3, 2.5};
  cfg.clutter_count = 0;
  Rng rng(11);
  const map::Scene s = map::Scene::generate(cfg, rng);
  for (std::size_t i = 5; i < s.boxes().size(); ++i)
    EXPECT_LT(s.boxes()[i].max().z, 0.5 * cfg.room_size.z);
}

TEST(Scene, CorridorLayoutKeepsMidSpanBare) {
  map::SceneConfig cfg;
  cfg.room_size = {3.4, 1.2, 1.8};
  cfg.layout = map::SceneLayout::kCorridor;
  cfg.furniture_count = 4;
  cfg.clutter_count = 8;
  cfg.corridor_cap_fraction = 0.22;
  Rng rng(17);
  const map::Scene s = map::Scene::generate(cfg, rng);
  // Everything beyond floor+walls (clutter rides on furniture, so it
  // inherits the cap confinement) stays clear of the central band: the
  // feature-dropout zone sees nothing but the parallel walls.
  for (std::size_t i = 5; i < s.boxes().size(); ++i) {
    const map::Box& b = s.boxes()[i];
    EXPECT_TRUE(b.max().x < 0.35 * cfg.room_size.x ||
                b.min().x > 0.65 * cfg.room_size.x)
        << "box " << i << " intrudes into the bare mid-span";
  }
}

TEST(Scene, WarehouseLayoutIsPointSymmetric) {
  map::SceneConfig cfg;
  cfg.room_size = {3.2, 2.8, 1.8};
  cfg.layout = map::SceneLayout::kWarehouse;
  cfg.furniture_count = 6;
  cfg.clutter_count = 8;
  Rng rng(19);
  const map::Scene s = map::Scene::generate(cfg, rng);
  // Furniture comes in pairs (6 -> 6) and clutter in pairs (8 -> 8).
  EXPECT_EQ(static_cast<int>(s.boxes().size()), 5 + 6 + 8);
  // Every non-wall box has a 180-degree-rotated counterpart: the scene is
  // invariant under (x, y) -> (r.x - x, r.y - y).
  for (std::size_t i = 5; i < s.boxes().size(); ++i) {
    const map::Box& b = s.boxes()[i];
    const Vec3 mirrored{cfg.room_size.x - b.center.x,
                        cfg.room_size.y - b.center.y, b.center.z};
    bool found = false;
    for (std::size_t j = 5; j < s.boxes().size(); ++j) {
      const map::Box& o = s.boxes()[j];
      if ((o.center - mirrored).norm() < 1e-9 &&
          (o.half_extents - b.half_extents).norm() < 1e-9) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "box " << i << " has no mirrored twin";
  }
}

TEST(Scene, PointCloudLiesNearSurfaces) {
  map::SceneConfig cfg;
  Rng rng(13);
  const map::Scene s = map::Scene::generate(cfg, rng);
  const auto cloud = s.sample_point_cloud(500, 0.0, rng);
  EXPECT_EQ(cloud.size(), 500u);
  for (const auto& p : cloud) {
    // Noise-free: every point is exactly on some box surface.
    bool on_some = false;
    for (const auto& b : s.boxes()) {
      const Vec3 d = p - b.center;
      const bool inside =
          std::abs(d.x) <= b.half_extents.x + 1e-9 &&
          std::abs(d.y) <= b.half_extents.y + 1e-9 &&
          std::abs(d.z) <= b.half_extents.z + 1e-9;
      const bool on_face =
          std::abs(std::abs(d.x) - b.half_extents.x) < 1e-9 ||
          std::abs(std::abs(d.y) - b.half_extents.y) < 1e-9 ||
          std::abs(std::abs(d.z) - b.half_extents.z) < 1e-9;
      if (inside && on_face) {
        on_some = true;
        break;
      }
    }
    EXPECT_TRUE(on_some);
  }
}

TEST(Scene, RaycastFindsNearestBox) {
  std::vector<map::Box> boxes{{{3, 0, 0}, {0.5, 1, 1}},
                              {{6, 0, 0}, {0.5, 1, 1}}};
  const map::Scene s(std::move(boxes), {0, -1, -1}, {7, 1, 1});
  const auto t = s.raycast({0, 0, 0}, {1, 0, 0});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 2.5, 1e-12);
}

TEST(WorldToVoltage, AffineRoundTrip) {
  const map::WorldToVoltage m({0, 0, 0}, {4, 3, 2}, 0.1, 0.9);
  const Vec3 p{1.0, 1.5, 0.5};
  const Vec3 v = m.point_to_voltage(p);
  EXPECT_NEAR((m.voltage_to_point(v) - p).norm(), 0.0, 1e-12);
  // Corners map to window edges.
  EXPECT_NEAR(m.point_to_voltage({0, 0, 0}).x, 0.1, 1e-12);
  EXPECT_NEAR(m.point_to_voltage({4, 3, 2}).x, 0.9, 1e-12);
}

TEST(WorldToVoltage, SigmaScalesPerAxis) {
  const map::WorldToVoltage m({0, 0, 0}, {4, 2, 1}, 0.1, 0.9);
  const Vec3 s = m.sigma_to_voltage({1, 1, 1});
  EXPECT_NEAR(s.x, 0.8 / 4.0, 1e-12);
  EXPECT_NEAR(s.y, 0.8 / 2.0, 1e-12);
  EXPECT_NEAR(s.z, 0.8 / 1.0, 1e-12);
}

TEST(WorldSigmaBounds, InvertsMapping) {
  const map::WorldToVoltage m({0, 0, 0}, {4, 2, 1}, 0.1, 0.9);
  const auto [lo, hi] = map::world_sigma_bounds(m, 0.04, 0.16);
  EXPECT_NEAR(lo.x, 0.04 * 4.0 / 0.8, 1e-12);
  EXPECT_NEAR(hi.z, 0.16 * 1.0 / 0.8, 1e-12);
}

TEST(CompileHmgm, MapsComponentsIntoVoltageWindow) {
  const prob::Hmgm h({{0.7, {1, 1, 0.5}, {0.3, 0.3, 0.2}},
                      {0.3, {3, 2, 1.5}, {0.5, 0.4, 0.3}}});
  const map::WorldToVoltage m({0, 0, 0}, {4, 3, 2}, 0.1, 0.9);
  const auto comps = map::compile_hmgm(h, m);
  ASSERT_EQ(comps.size(), 2u);
  for (const auto& c : comps) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(c.center_v[d], 0.1);
      EXPECT_LE(c.center_v[d], 0.9);
      EXPECT_GT(c.sigma_v[d], 0.0);
    }
  }
  // Column weights renormalized to 1.
  EXPECT_NEAR(comps[0].weight + comps[1].weight, 1.0, 1e-12);
}

TEST(Camera, KinectLikeFovMatches) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  // Half-width ray at image edge should sit at ~28.5 degrees.
  const double half_fov = std::atan(0.5 * 64 / k.fx);
  EXPECT_NEAR(half_fov * 180 / 3.14159265, 28.5, 0.1);
}

TEST(Camera, ProjectBackProjectRoundTrip) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  const Vec3 p{0.3, -0.2, 2.0};
  const auto px = vision::project(k, p);
  ASSERT_TRUE(px.has_value());
  const Vec3 back = vision::back_project(k, *px);
  // Pixel rounding bounds the reconstruction error.
  EXPECT_NEAR(back.z, p.z, 1e-12);
  EXPECT_NEAR(back.x, p.x, p.z / k.fx);
  EXPECT_NEAR(back.y, p.y, p.z / k.fy);
}

TEST(Camera, RejectsBehindAndOutside) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  EXPECT_FALSE(vision::project(k, {0, 0, -1}).has_value());
  EXPECT_FALSE(vision::project(k, {10, 0, 1}).has_value());
}

TEST(Camera, BodyCameraFramesRoundTrip) {
  const Vec3 b{1, 2, 3};
  EXPECT_EQ(vision::camera_to_body(vision::body_to_camera(b)), b);
}

TEST(Camera, MountPitchTipsForwardAxisDown) {
  const Vec3 fwd{1, 0, 0};
  const Vec3 p = vision::apply_mount_pitch(fwd, 0.5);
  EXPECT_LT(p.z, 0.0);
  EXPECT_NEAR(p.norm(), 1.0, 1e-12);
}

TEST(Camera, PixelRayIsUnitAndForward) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  const Vec3 r = vision::pixel_ray(k, 10, 20);
  EXPECT_NEAR(r.norm(), 1.0, 1e-12);
  EXPECT_GT(r.z, 0.0);
}

class DepthRenderTest : public ::testing::Test {
 protected:
  DepthRenderTest() {
    // A wall 3 m in front of the origin-facing camera.
    std::vector<map::Box> boxes{{{3.5, 0, 0}, {0.5, 5, 5}}};
    scene_ = std::make_unique<map::Scene>(std::move(boxes),
                                          Vec3{-5, -5, -5}, Vec3{5, 5, 5});
  }
  vision::RaycastFn raycaster() const {
    return [this](const Vec3& o, const Vec3& d) {
      return scene_->raycast(o, d);
    };
  }
  /// A noise-free render into a fresh scan.
  vision::DepthScan render(const vision::CameraIntrinsics& k, const Pose& pose,
                           const vision::DepthRenderOptions& opt) const {
    vision::DepthScan scan;
    vision::render_depth_scan_into(k, pose, raycaster(), opt, nullptr, scan);
    return scan;
  }
  /// Every pixel back-projected at `pose`, as the likelihood does it.
  static std::vector<Vec3> world_points(const vision::DepthScan& scan,
                                        const Pose& pose) {
    const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
    std::vector<Vec3> world;
    for (const auto& px : scan.pixels)
      world.push_back(vision::pixel_to_world(scan, rot, pose.position, px));
    return world;
  }
  std::unique_ptr<map::Scene> scene_;
};

TEST_F(DepthRenderTest, CenterPixelSeesWallDistance) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  vision::DepthRenderOptions opt;
  opt.pixel_stride = 1;
  const auto scan = render(k, Pose{{0, 0, 0}, 0.0}, opt);
  ASSERT_FALSE(scan.pixels.empty());
  for (const auto& px : scan.pixels) {
    if (px.u == 32 && px.v == 24) {
      // Central ray is nearly axial: depth ~= 3 m.
      EXPECT_NEAR(px.depth_m, 3.0, 0.01);
      return;
    }
  }
  FAIL() << "center pixel not found";
}

TEST_F(DepthRenderTest, ScanToWorldLandsOnWall) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  vision::DepthRenderOptions opt;
  opt.pixel_stride = 4;
  const Pose pose{{0, 0, 0}, 0.0};
  const auto scan = render(k, pose, opt);
  ASSERT_FALSE(scan.pixels.empty());
  for (const auto& p : world_points(scan, pose)) EXPECT_NEAR(p.x, 3.0, 0.02);
}

TEST_F(DepthRenderTest, ScanToWorldConsistentUnderYawAndPitch) {
  // Render from a rotated, pitched pose; back-projection at the same pose
  // must land on the same wall plane.
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  vision::DepthRenderOptions opt;
  opt.pixel_stride = 4;
  opt.mount_pitch_rad = 0.3;
  const Pose pose{{-1.0, 0.5, 1.0}, 0.2};
  const auto scan = render(k, pose, opt);
  ASSERT_FALSE(scan.pixels.empty());
  EXPECT_DOUBLE_EQ(scan.mount_pitch_rad, 0.3);
  for (const auto& p : world_points(scan, pose))
    EXPECT_NEAR(p.x, 3.0, 0.02);
}

TEST_F(DepthRenderTest, MaxRangeDropsFarPixels) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  vision::DepthRenderOptions opt;
  opt.max_range_m = 2.0;  // wall at 3 m: everything out of range
  const auto scan = render(k, Pose{{0, 0, 0}, 0.0}, opt);
  EXPECT_TRUE(scan.pixels.empty());
}

TEST_F(DepthRenderTest, NoiseRequiresRng) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  vision::DepthRenderOptions opt;
  opt.noise_sigma_m = 0.01;
  EXPECT_THROW(render(k, Pose{}, opt), std::invalid_argument);
}

TEST_F(DepthRenderTest, SubsampleKeepsFieldsAndCount) {
  const auto k = vision::CameraIntrinsics::kinect_like(64, 48);
  vision::DepthRenderOptions opt;
  opt.pixel_stride = 2;
  opt.mount_pitch_rad = 0.25;
  const auto scan = render(k, Pose{{0, 0, 0}, 0.0}, opt);
  Rng rng(17);
  vision::DepthScan sub, same;
  vision::subsample_scan_into(scan, 40, rng, sub);
  EXPECT_EQ(sub.pixels.size(), 40u);
  EXPECT_DOUBLE_EQ(sub.mount_pitch_rad, 0.25);
  // Subsampling a smaller scan is the identity.
  vision::subsample_scan_into(sub, 100, rng, same);
  EXPECT_EQ(same.pixels.size(), sub.pixels.size());
}

}  // namespace
}  // namespace cimnav
