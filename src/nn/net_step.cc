#include "nn/net_step.h"

namespace sbrl {

Var ApplyActivation(Var x, ops::ActKind act) {
  switch (act) {
    case ops::ActKind::kIdentity: return x;
    case ops::ActKind::kElu: return ops::Elu(x);
    case ops::ActKind::kRelu: return ops::Relu(x);
    case ops::ActKind::kTanh: return ops::Tanh(x);
    case ops::ActKind::kSigmoid: return ops::Sigmoid(x);
  }
  SBRL_CHECK(false) << "unreachable";
  return x;
}

}  // namespace sbrl
