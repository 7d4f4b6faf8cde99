#include "sketch/estimators.h"

namespace sketchtree {

double Factorial(int m) {
  double out = 1.0;
  for (int i = 2; i <= m; ++i) out *= i;
  return out;
}

}  // namespace sketchtree
