#ifndef SKETCHTREE_SKETCH_ESTIMATORS_H_
#define SKETCHTREE_SKETCH_ESTIMATORS_H_

namespace sketchtree {

/// m! as a double (m <= 170 before overflow; expressions use tiny m) —
/// the X^m / m! normalization of the product estimator (Section 4).
/// The estimators themselves live in core/estimate_plan.h.
double Factorial(int m);

}  // namespace sketchtree

#endif  // SKETCHTREE_SKETCH_ESTIMATORS_H_
