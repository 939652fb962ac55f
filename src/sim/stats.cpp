#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace vds::sim {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::sem() const noexcept {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double Accumulator::ci_halfwidth_t(double confidence) const noexcept {
  if (n_ < 2) return 0.0;
  const double s = sem();
  if (s == 0.0) return 0.0;  // zero variance: t * 0 must stay 0
  return student_t_critical(confidence, n_ - 1) * s;
}

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

// --- critical values --------------------------------------------------

namespace {

/// Regularized incomplete beta I_x(a, b) by the Lentz continued
/// fraction (Numerical Recipes betacf form). Converges fast for
/// x < (a + 1) / (a + b + 2); the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
/// covers the rest.
double incomplete_beta_cf(double a, double b, double x) noexcept {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kTiny = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

double incomplete_beta(double a, double b, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // lgamma_r: std::lgamma writes the global signgam, a data race when
  // campaign workers evaluate intervals concurrently.
  int sign = 0;
  const double ln_front = lgamma_r(a + b, &sign) - lgamma_r(a, &sign) -
                          lgamma_r(b, &sign) + a * std::log(x) +
                          b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * incomplete_beta_cf(a, b, x) / a;
  }
  return 1.0 - front * incomplete_beta_cf(b, a, 1.0 - x) / b;
}

/// Two-sided tail mass of Student's t beyond |t|:
/// P(|T| > t) = I_{v/(v+t^2)}(v/2, 1/2).
double t_two_sided_tail(double t, double dof) noexcept {
  return incomplete_beta(dof / 2.0, 0.5,
                         dof / (dof + t * t));
}

}  // namespace

double normal_critical(double confidence) noexcept {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Acklam's rational approximation of the inverse normal CDF,
  // polished with one Halley step — ~1e-15 relative error, plenty for
  // a stopping rule.
  const double p = 0.5 * (1.0 + confidence);  // upper quantile point
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
         c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
         a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement against the true CDF via erfc.
  const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
  constexpr double kSqrt2Pi = 2.506628274631000502;
  const double u = e * kSqrt2Pi * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double student_t_critical(double confidence, std::uint64_t dof) noexcept {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (dof == 0) return std::numeric_limits<double>::infinity();
  // Past ~1e6 dof the t distribution is the normal to double
  // precision and the bisection below would just burn iterations.
  if (dof > 1000000) return normal_critical(confidence);
  const double v = static_cast<double>(dof);
  const double tail = 1.0 - confidence;  // P(|T| > t) at the answer
  // Bracket: the normal critical value is a lower bound for every
  // dof; grow the upper bound until the tail mass drops below target.
  double lo = normal_critical(confidence);
  double hi = std::max(2.0 * lo, 2.0);
  while (t_two_sided_tail(hi, v) > tail) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (t_two_sided_tail(mid, v) > tail) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * hi) break;
  }
  return 0.5 * (lo + hi);
}

namespace {

constexpr int kSubBits = 5;  // 32 sub-buckets per binade: epsilon 1/64
constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
constexpr int kMinExp = -20;
constexpr int kMaxExp = 22;
constexpr double kLowest = 0x1p-20;   // 2^kMinExp: the first tracked value
constexpr double kHighest = 0x1p+22;  // 2^kMaxExp: the first overflow value
constexpr std::size_t kBuckets =
    static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

/// Bucket of a non-NaN sample. In [2^-20, 2^22) the IEEE-754 exponent
/// picks the binade and the top mantissa bits the sub-bucket, exactly.
[[nodiscard]] std::size_t bucket_of(double x) noexcept {
  if (!(x >= kLowest)) return 0;
  if (x >= kHighest) return kBuckets - 1;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto exp = static_cast<int>(bits >> 52) - 1023;
  const auto sub = (bits >> (52 - kSubBits)) & (kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

/// The value a bucket reports: its midpoint (0 and +inf at the ends).
[[nodiscard]] double bucket_value(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  if (i == kBuckets - 1) return std::numeric_limits<double>::infinity();
  const std::size_t binade = (i - 1) / kSubBuckets;
  const std::size_t sub = (i - 1) % kSubBuckets;
  return std::ldexp(
      1.0 + (static_cast<double>(sub) + 0.5) / kSubBuckets,
      static_cast<int>(binade) + kMinExp);
}

}  // namespace

void Histogram::add(double x) {
  if (std::isnan(x)) {
    ++nan_;
    return;
  }
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  ++counts_[bucket_of(x)];
  acc_.add(x);
}

void Histogram::merge(const Histogram& other) {
  nan_ += other.nan_;
  acc_.merge(other.acc_);
  if (other.counts_.empty()) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
}

std::uint64_t Histogram::underflow() const noexcept {
  return counts_.empty() ? 0 : counts_.front();
}

std::uint64_t Histogram::overflow() const noexcept {
  return counts_.empty() ? 0 : counts_.back();
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t ranked = acc_.count();
  if (ranked == 0) return 0.0;
  const double want = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(ranked));
  const std::uint64_t rank =
      std::clamp<std::uint64_t>(static_cast<std::uint64_t>(want), 1, ranked);
  std::size_t i = 0;
  for (std::uint64_t seen = counts_[0]; seen < rank; seen += counts_[i]) ++i;
  return std::clamp(bucket_value(i), acc_.min(), acc_.max());
}

}  // namespace vds::sim
