// E14 (ablation) — the shape-closeness methods the paper cites in §2
// (turning functions [ACH+90], moment invariants [KK97, TC91], Hausdorff
// distance [HRK92]) disagree exactly where their invariance groups differ.
// We measure (a) top-k agreement between methods on a synthetic shape
// collection and (b) each method's behaviour under the transforms it
// should / should not be invariant to.

#include "bench_util.h"
#include "image/qbic_source.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;
constexpr size_t kK = 10;

std::vector<ObjectId> TopIds(QbicShapeSource* src, size_t k) {
  src->RestartSorted();
  std::vector<ObjectId> out;
  for (size_t i = 0; i < k; ++i) {
    std::optional<GradedObject> next = src->NextSorted();
    if (!next.has_value()) break;
    out.push_back(next->id);
  }
  src->RestartSorted();
  return out;
}

double Overlap(const std::vector<ObjectId>& a,
               const std::vector<ObjectId>& b) {
  size_t common = 0;
  for (ObjectId id : a) {
    if (std::find(b.begin(), b.end(), id) != b.end()) ++common;
  }
  return static_cast<double>(common) / static_cast<double>(a.size());
}

void PrintTables() {
  Banner("E14: shape methods — top-10 agreement (800 synthetic shapes)");
  ImageStoreOptions options;
  options.num_images = 800;
  options.palette_size = 8;
  options.seed = kSeed;
  ImageStore store = CheckedValue(ImageStore::Generate(options), "store");
  Polygon target = Polygon::Regular(7, 1.2);

  QbicShapeSource turning = CheckedValue(
      QbicShapeSource::Create(&store, target, "t", 64,
                              ShapeMethod::kTurningFunction),
      "turning");
  QbicShapeSource hu = CheckedValue(
      QbicShapeSource::Create(&store, target, "hu", 64,
                              ShapeMethod::kHuMoments),
      "hu");
  QbicShapeSource hausdorff = CheckedValue(
      QbicShapeSource::Create(&store, target, "hd", 64,
                              ShapeMethod::kHausdorff),
      "hausdorff");

  std::vector<ObjectId> top_t = TopIds(&turning, kK);
  std::vector<ObjectId> top_h = TopIds(&hu, kK);
  std::vector<ObjectId> top_d = TopIds(&hausdorff, kK);

  TablePrinter agree({"pair", "top-10 overlap"});
  agree.AddRow({"turning vs hu-moments", TablePrinter::Num(
                                             Overlap(top_t, top_h), 3)});
  agree.AddRow({"turning vs hausdorff", TablePrinter::Num(
                                            Overlap(top_t, top_d), 3)});
  agree.AddRow({"hu-moments vs hausdorff",
                TablePrinter::Num(Overlap(top_h, top_d), 3)});
  agree.Print();

  Banner("E14b: invariance fingerprint (distance of a shape to its own "
         "transform; 0 = invariant)");
  Rng rng(kSeed);
  Polygon shape = Polygon::RandomStar(&rng, 9);
  auto turning_d = [&](const Polygon& other) {
    return TurningDistance(TurningFunction(shape, 64),
                           TurningFunction(other, 64));
  };
  auto hu_d = [&](const Polygon& other) {
    return HuMomentDistance(ComputeHuMoments(shape),
                            ComputeHuMoments(other));
  };
  auto hd_d = [&](const Polygon& other) {
    return HausdorffShapeDistance(shape, other, 64);
  };
  TablePrinter inv({"method", "translate", "rotate", "scale x2"});
  Polygon translated = shape.Translated(5.0, -2.0);
  Polygon rotated = shape.Rotated(0.9);
  Polygon scaled = shape.Scaled(2.0);
  inv.AddRow({"turning [ACH+90]", TablePrinter::Num(turning_d(translated), 3),
              TablePrinter::Num(turning_d(rotated), 3),
              TablePrinter::Num(turning_d(scaled), 3)});
  inv.AddRow({"hu-moments [KK97]", TablePrinter::Num(hu_d(translated), 3),
              TablePrinter::Num(hu_d(rotated), 3),
              TablePrinter::Num(hu_d(scaled), 3)});
  inv.AddRow({"hausdorff [HRK92]", TablePrinter::Num(hd_d(translated), 3),
              TablePrinter::Num(hd_d(rotated), 3),
              TablePrinter::Num(hd_d(scaled), 3)});
  inv.Print();
  std::cout << "Expectation: turning functions and Hu moments are invariant "
               "(0) to all three transforms; the Hausdorff method is "
               "translation-invariant only — so the three methods rank a "
               "scaled/rotated collection differently, which is why the "
               "paper surveys several and [MKL97, Mu91] compare them.\n";
}

void BM_ShapeDistance(benchmark::State& state) {
  Rng rng(kSeed);
  Polygon a = Polygon::RandomStar(&rng, 10);
  Polygon b = Polygon::RandomStar(&rng, 10);
  const int which = static_cast<int>(state.range(0));
  std::vector<double> ta = TurningFunction(a, 64), tb = TurningFunction(b, 64);
  HuMoments ha = ComputeHuMoments(a), hb = ComputeHuMoments(b);
  for (auto _ : state) {
    double d = 0.0;
    switch (which) {
      case 0:
        d = TurningDistance(ta, tb);
        break;
      case 1:
        d = HuMomentDistance(ha, hb);
        break;
      default:
        d = HausdorffShapeDistance(a, b, 64);
        break;
    }
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(which == 0 ? "turning" : which == 1 ? "hu" : "hausdorff");
}
BENCHMARK(BM_ShapeDistance)->Arg(0)->Arg(1)->Arg(2);

// One query's turning-function grading of a 1,000-image store, the work a
// served query naming Shape pays before the middleware reads a grade. Each
// iteration grades against the next stored image's shape.
void BM_TurningGrade(benchmark::State& state) {
  ImageStoreOptions options;
  options.num_images = 1000;
  options.palette_size = 8;
  options.seed = kSeed;
  const ImageStore store =
      CheckedValue(ImageStore::Generate(options), "store");
  size_t q = 0;
  for (auto _ : state) {
    const Polygon& target = store.image(q++ % store.size()).shape;
    QbicShapeSource src =
        CheckedValue(QbicShapeSource::Create(&store, target), "turning");
    benchmark::DoNotOptimize(src.Size());
  }
}
BENCHMARK(BM_TurningGrade)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
