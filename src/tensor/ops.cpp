#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

namespace pgcn::tensor {

void
softmaxRowsInPlace(DenseMatrix &m)
{
    for (uint64_t r = 0; r < m.rows(); ++r) {
        auto row = m.row(r);
        if (row.empty())
            continue;
        const float max_val = *std::max_element(row.begin(), row.end());
        float sum = 0.0f;
        for (float &x : row) {
            x = std::exp(x - max_val);
            sum += x;
        }
        for (float &x : row)
            x /= sum;
    }
}

std::vector<uint64_t>
argmaxRows(const DenseMatrix &m)
{
    std::vector<uint64_t> out(m.rows());
    for (uint64_t r = 0; r < m.rows(); ++r) {
        auto row = m.row(r);
        PGCN_ASSERT(!row.empty(), "argmax of zero-width matrix");
        out[r] = static_cast<uint64_t>(std::distance(
            row.begin(), std::max_element(row.begin(), row.end())));
    }
    return out;
}

} // namespace pgcn::tensor
