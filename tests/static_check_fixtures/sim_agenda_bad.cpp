// static-check-fixture: path=src/sim/fixture_agenda.cpp expect=sim-agenda:5
//
// A DES driver that queues closures and shares state between them. Each
// type-erased callable, each shared owner and the header that brings
// std::function in is reported; the mentions in comments are not
// (std::function, std::shared_ptr, make_shared).

#include <functional>  // flagged
#include <memory>

#include "sim/des.hpp"

namespace confnet::sim {

struct Spurt {
  u32 talking = 0;
};

void drive(Simulator& des) {
  std::function<void()> tick;                     // flagged
  std::shared_ptr<Spurt> st =                     // flagged
      std::make_shared<Spurt>();                  // flagged
  auto other = make_shared<Spurt>();              // flagged: unqualified
  des.schedule(1.0, 0);
}

}  // namespace confnet::sim
