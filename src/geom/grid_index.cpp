#include "geom/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "core/assert.hpp"

namespace manet {

GridIndex::GridIndex(Area area, double cell) : area_(area), cell_(cell) {
  MANET_EXPECTS(cell > 0.0);
  MANET_EXPECTS(area.width > 0.0 && area.height > 0.0);
  nx_ = static_cast<std::size_t>(std::ceil(area.width / cell)) + 1;
  ny_ = static_cast<std::size_t>(std::ceil(area.height / cell)) + 1;
  cells_.resize(nx_ * ny_);
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  const Vec2 q = area_.clamp(p);
  const auto cx = static_cast<std::size_t>(q.x / cell_);
  const auto cy = static_cast<std::size_t>(q.y / cell_);
  return std::min(cy, ny_ - 1) * nx_ + std::min(cx, nx_ - 1);
}

std::uint32_t GridIndex::insert(Vec2 p) {
  const auto id = static_cast<std::uint32_t>(pos_.size());
  pos_.push_back(p);
  const std::size_t c = cell_of(p);
  cell_idx_.push_back(c);
  cells_[c].push_back(id);
  return id;
}

void GridIndex::update(std::uint32_t id, Vec2 p) {
  MANET_EXPECTS(id < pos_.size());
  pos_[id] = p;
  const std::size_t c = cell_of(p);
  if (c == cell_idx_[id]) return;
  auto& old_cell = cells_[cell_idx_[id]];
  old_cell.erase(std::find(old_cell.begin(), old_cell.end(), id));
  cells_[c].push_back(id);
  cell_idx_[id] = c;
}

void GridIndex::query(Vec2 center, double radius, std::uint32_t exclude,
                      std::vector<std::uint32_t>& out) const {
  const std::size_t first = out.size();
  const double r2 = radius * radius;
  const Vec2 lo = area_.clamp({center.x - radius, center.y - radius});
  const Vec2 hi = area_.clamp({center.x + radius, center.y + radius});
  const auto cx0 = static_cast<std::size_t>(lo.x / cell_);
  const auto cy0 = static_cast<std::size_t>(lo.y / cell_);
  const auto cx1 = std::min(static_cast<std::size_t>(hi.x / cell_), nx_ - 1);
  const auto cy1 = std::min(static_cast<std::size_t>(hi.y / cell_), ny_ - 1);
  for (std::size_t cy = cy0; cy <= cy1; ++cy) {
    for (std::size_t cx = cx0; cx <= cx1; ++cx) {
      for (const std::uint32_t id : cells_[cy * nx_ + cx]) {
        if (id == exclude) continue;
        if (distance2(pos_[id], center) <= r2) out.push_back(id);
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

}  // namespace manet
