#include "gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "datacenter/resource.hpp"
#include "datacenter/service_spec.hpp"
#include "virt/impact.hpp"

namespace perfbench {
namespace {

using vmcons::core::ModelInputs;
using vmcons::dc::Resource;
using vmcons::dc::ServiceSpec;
using vmcons::virt::Impact;

// Stream ids: one per generator, so adding a generator never shifts another.
constexpr std::uint64_t kWhatIfStream = 1;
constexpr std::uint64_t kLightStream = 2;
constexpr std::uint64_t kPlanStream = 3;

constexpr std::array<Resource, 4> kResources = {
    Resource::kCpu, Resource::kDiskIo, Resource::kMemory, Resource::kNetwork};

/// Shared impact curves: light scenarios pick from this table, so a
/// million-scenario store costs no per-service curve allocation.
const std::vector<Impact>& impact_table() {
  static const std::vector<Impact> table = [] {
    std::vector<Impact> curves;
    for (int i = 0; i < 10; ++i) {
      curves.push_back(Impact::constant(0.55 + 0.05 * i));
    }
    curves.push_back(Impact::paper_web_disk_io());
    curves.push_back(Impact::paper_web_cpu());
    curves.push_back(Impact::paper_db_cpu());
    curves.push_back(Impact::none());
    return curves;
  }();
  return table;
}

/// One service whose bottleneck resource carries `offered_load` Erlangs at
/// native rate `bottleneck_rate`; every other resource is demanded with
/// probability 1/2 at a strictly faster rate.
ServiceSpec make_service(Rng& rng, std::string name, double bottleneck_rate,
                         double offered_load) {
  ServiceSpec spec;
  spec.name = std::move(name);
  spec.arrival_rate = offered_load * bottleneck_rate;
  const auto& curves = impact_table();
  const std::size_t bottleneck = rng.between(0, 1);  // cpu or disk
  for (std::size_t r = 0; r < kResources.size(); ++r) {
    const Impact& curve = curves[rng.between(0, curves.size() - 1)];
    if (r == bottleneck) {
      spec.demand(kResources[r], bottleneck_rate, curve);
    } else if (rng.chance(0.5)) {
      spec.demand(kResources[r], bottleneck_rate * rng.uniform(1.2, 6.0),
                  curve);
    }
  }
  return spec;
}

std::string format_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

template <typename T>
void put(std::string& out, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

void put_string(std::string& out, const std::string& value) {
  put(out, static_cast<std::uint64_t>(value.size()));
  out += value;
}

}  // namespace

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_id,
                std::uint64_t index) {
  Rng mix(seed ^ (stream_id * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t base = mix.next();
  Rng at(base + index * 0xbf58476d1ce4e5b9ULL);
  at.next();
  return at;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::log_uniform(double lo, double hi) {
  return lo * std::exp(std::log(hi / lo) * uniform());
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

std::vector<ModelInputs> whatif_cells(std::uint64_t seed,
                                      const WhatIfShape& shape) {
  std::vector<ModelInputs> cells;
  cells.reserve(shape.cells());
  // The grid's total work should barely depend on the seed while every
  // input does: portfolio sizes cycle through 2..8 services, each portfolio's
  // log-uniform loads are sorted and rescaled to a fixed total per service
  // (~6.3k Erlangs, the log-midpoint of 2k..20k), and every service demands
  // exactly two resources in a fixed pattern, with impact factors and the
  // second resource's rate multiple stratified by load rank.
  for (std::size_t p = 0; p < shape.portfolios; ++p) {
    Rng rng = Rng::stream(seed, kWhatIfStream, p);
    ModelInputs portfolio;
    const std::size_t services = 2 + p % 7;
    std::vector<double> loads(services);
    double total = 0.0;
    for (double& load : loads) {
      load = rng.log_uniform(2000, 20000);
      total += load;
    }
    std::sort(loads.begin(), loads.end());
    const double rescale =
        std::sqrt(2000.0 * 20000.0) * static_cast<double>(services) / total;
    for (std::size_t i = 0; i < services; ++i) {
      static const std::array<std::string, 8> kNames = {
          "h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"};
      ServiceSpec spec;
      spec.name = kNames[i];
      const double rate = rng.log_uniform(20, 2000);
      spec.arrival_rate = loads[i] * rescale * rate;
      // Alternate cpu+memory and disk+network, so every portfolio's merged
      // stream demands all four resources.
      const std::size_t bottleneck = i % 2;
      const std::size_t other = 2 + i % 2;
      const double stratum = (static_cast<double>(i) + rng.uniform()) /
                             static_cast<double>(services);
      const Impact impact = Impact::constant(0.55 + 0.45 * stratum);
      spec.demand(kResources[bottleneck], rate, impact);
      spec.demand(kResources[other], rate * (1.2 + 4.8 * stratum), impact);
      portfolio.services.push_back(std::move(spec));
    }
    for (std::size_t s = 0; s < shape.scales; ++s) {
      const double scale =
          shape.scales == 1
              ? 1.0
              : 0.5 + 1.5 * static_cast<double>(s) /
                          static_cast<double>(shape.scales - 1);
      for (std::size_t l = 0; l < shape.losses; ++l) {
        const double loss =
            shape.losses == 1
                ? 0.01
                : 1e-4 * std::pow(1e3, static_cast<double>(l) /
                                           static_cast<double>(shape.losses - 1));
        ModelInputs cell = portfolio;
        cell.target_loss = loss;
        for (ServiceSpec& service : cell.services) {
          service.arrival_rate *= scale;
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

ModelInputs light_scenario(std::uint64_t seed, std::uint64_t index) {
  static const std::array<std::string, 4> kNames = {"s0", "s1", "s2", "s3"};
  Rng rng = Rng::stream(seed, kLightStream, index);
  ModelInputs inputs;
  inputs.target_loss = rng.log_uniform(1e-3, 5e-2);
  const std::size_t services = rng.between(2, 4);
  inputs.services.reserve(services);
  for (std::size_t i = 0; i < services; ++i) {
    inputs.services.push_back(make_service(
        rng, kNames[i], rng.log_uniform(50, 500), rng.uniform(5, 60)));
  }
  return inputs;
}

std::vector<std::string> plan_texts(std::uint64_t seed, std::size_t count) {
  std::vector<std::string> texts;
  texts.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    Rng rng = Rng::stream(seed, kPlanStream, t);
    if (t >= 4 && rng.chance(kPlanRepeatShare)) {
      texts.push_back(texts[rng.between(0, t - 1)]);
      continue;
    }
    std::string text = "[plan]\ntarget_loss = " +
                       format_number(rng.log_uniform(1e-4, 5e-2)) + "\n";
    const std::size_t services = rng.between(2, 8);
    for (std::size_t i = 0; i < services; ++i) {
      const ServiceSpec spec =
          make_service(rng, "svc" + std::to_string(i),
                       rng.log_uniform(20, 2000), rng.log_uniform(10, 5000));
      text += "\n[service]\nname = " + spec.name +
              "\narrival_rate = " + format_number(spec.arrival_rate) + "\n";
      for (const Resource resource : kResources) {
        const double rate = spec.native_rates[resource];
        if (rate > 0.0) {
          const std::string key(vmcons::dc::resource_name(resource));
          // The INI format names disk I/O "disk"; impacts are constants.
          const std::string prefix = resource == Resource::kDiskIo ? "disk" : key;
          text += prefix + "_rate = " + format_number(rate) + "\n" + prefix +
                  "_impact = " + format_number(rng.uniform(0.55, 1.0)) + "\n";
        }
      }
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

std::string encode(const ModelInputs& inputs) {
  std::string out;
  put(out, inputs.target_loss);
  put(out, inputs.vms_per_server.value_or(0));
  put(out, static_cast<std::uint64_t>(inputs.services.size()));
  for (const ServiceSpec& service : inputs.services) {
    put_string(out, service.name);
    put(out, service.arrival_rate);
    for (const Resource resource : kResources) {
      put(out, service.native_rates[resource]);
      for (unsigned v = 1; v <= 16; ++v) {
        put(out, service.impact_factor(resource, v));
      }
    }
  }
  for (const auto& power : {inputs.dedicated_power, inputs.consolidated_power}) {
    put(out, power.base_watts);
    put(out, power.max_watts);
  }
  put(out, static_cast<std::uint64_t>(inputs.fleet.size()));
  return out;
}

}  // namespace perfbench
