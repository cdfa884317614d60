// The N x N power-grid netlist text perfbench's transient_mix sends (its
// grid_request with fixed element values; the workload sends 64 x 64, a
// 0.48 MB line). Shared by the sparse-kernel tests, the netlist fuzzer and
// the parse/decode micro benchmarks.
#pragma once

#include <string>

inline std::string perfbench_grid_netlist(int n) {
  std::string net = "* grid\n";
  const int lo = n / 4, hi = n - n / 4;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      const std::string s = std::to_string(x) + "_" + std::to_string(y);
      const std::string node = " g" + s;
      if (x + 1 < n)
        net += "rh" + s + node + " g" + std::to_string(x + 1) + "_" + std::to_string(y) +
               " 0.05\n";
      if (y + 1 < n)
        net += "rv" + s + node + " g" + std::to_string(x) + "_" + std::to_string(y + 1) +
               " 0.05\n";
      net += "cd" + s + node + " 0 50p\n";
      net += "il" + s + node + " 0 DC 0.01\n";
      if (x >= lo && x < hi && y >= lo && y < hi)
        net += "is" + s + node + " 0 PULSE(0 0.1 2n 0.2n 0.2n 1 2)\n";
    }
  for (int y = 0; y < n; y += 4)
    for (int x = 0; x < n; x += 4) {
      const std::string s = std::to_string(x) + "_" + std::to_string(y);
      net += "vb" + s + " bump" + s + " 0 DC 1\n";
      net += "rb" + s + " bump" + s + " g" + s + " 0.02\n";
    }
  return net + ".end\n";
}
