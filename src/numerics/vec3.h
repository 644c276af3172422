#pragma once

#include <cmath>

// 3-component vector used for positions, magnetizations and fields.
// Deliberately a plain aggregate with value semantics (Core Guidelines C.1):
// the magnetics solvers create millions of these in inner loops.

namespace mram::num {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  constexpr Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  constexpr Vec3& operator*=(double s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }
  constexpr Vec3& operator/=(double s) {
    x /= s;
    y /= s;
    z /= s;
    return *this;
  }
};

constexpr Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
constexpr Vec3 operator-(Vec3 a, const Vec3& b) { return a -= b; }
constexpr Vec3 operator*(Vec3 a, double s) { return a *= s; }
constexpr Vec3 operator*(double s, Vec3 a) { return a *= s; }
constexpr Vec3 operator/(Vec3 a, double s) { return a /= s; }
constexpr Vec3 operator-(const Vec3& a) { return {-a.x, -a.y, -a.z}; }

constexpr bool operator==(const Vec3& a, const Vec3& b) {
  return a.x == b.x && a.y == b.y && a.z == b.z;
}

constexpr double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}

constexpr double norm2(const Vec3& a) { return dot(a, a); }

inline double norm(const Vec3& a) { return std::sqrt(norm2(a)); }

/// Unit vector along `a`. Precondition (unchecked, hot path): |a| > 0.
inline Vec3 normalized(const Vec3& a) { return a / norm(a); }

/// True when the vectors agree within absolute tolerance per component.
inline bool almost_equal(const Vec3& a, const Vec3& b, double tol) {
  return std::abs(a.x - b.x) <= tol && std::abs(a.y - b.y) <= tol &&
         std::abs(a.z - b.z) <= tol;
}

}  // namespace mram::num
