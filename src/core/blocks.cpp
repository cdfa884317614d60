#include "core/blocks.hpp"

namespace ivory::core {

PeripheralTech peripheral_tech(tech::Node node) {
  const tech::SwitchTech& dev = tech::switch_tech(node, tech::DeviceClass::Core);
  PeripheralTech t;
  t.vdd_v = dev.vdd_nom_v;
  t.unit_cg_f = 4.0 * dev.cgate_per_w_f_m * kUnitWidth_m;
  t.unit_area_m2 = dev.area(kUnitWidth_m);
  return t;
}

}  // namespace ivory::core
