/**
 * @file
 * Unit and property tests for the three GEMM engines.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "arith/bfloat16.hh"
#include "arith/gemm.hh"
#include "common/random.hh"

namespace equinox
{
namespace arith
{
namespace
{

Matrix
randomMatrix(std::size_t r, std::size_t c, Rng &rng, double sd = 1.0)
{
    Matrix m(r, c);
    m.randomize(rng, sd);
    return m;
}

TEST(GemmEngine, Names)
{
    EXPECT_STREQ(encodingName(Encoding::Fp32), "fp32");
    EXPECT_STREQ(encodingName(Encoding::Bfloat16), "bfloat16");
    EXPECT_STREQ(encodingName(Encoding::Hbfp8), "hbfp8");
}

TEST(Fp32Gemm, KnownProduct)
{
    Matrix a(2, 3), b(3, 2), c(2, 2);
    float av[] = {1, 2, 3, 4, 5, 6};
    float bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data());
    std::copy(bv, bv + 6, b.data());
    Fp32Gemm eng;
    eng.multiply(a, b, c, false);
    EXPECT_EQ(c.at(0, 0), 58.0f);
    EXPECT_EQ(c.at(0, 1), 64.0f);
    EXPECT_EQ(c.at(1, 0), 139.0f);
    EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Fp32Gemm, AccumulateAddsIntoC)
{
    Rng rng(5);
    Matrix a = randomMatrix(4, 6, rng);
    Matrix b = randomMatrix(6, 3, rng);
    Matrix c0(4, 3, 2.0f), c1(4, 3, 0.0f);
    Fp32Gemm eng;
    eng.multiply(a, b, c0, true);
    eng.multiply(a, b, c1, false);
    for (std::size_t i = 0; i < c0.size(); ++i)
        EXPECT_NEAR(c0.data()[i], c1.data()[i] + 2.0f, 1e-5);
}

TEST(Fp32Gemm, IdentityIsNeutral)
{
    Rng rng(6);
    Matrix a = randomMatrix(5, 5, rng);
    Matrix eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        eye.at(i, i) = 1.0f;
    Matrix c(5, 5);
    Fp32Gemm eng;
    eng.multiply(a, eye, c, false);
    EXPECT_LT(maxAbsDiff(a, c), 1e-6);
}

/** Property sweep: every engine approximates the fp32 reference with an
 *  encoding-dependent error bound. */
struct EngineErrorCase
{
    Encoding encoding;
    // googletest names each case by dumping the parameter's bytes; this
    // field fills what would be padding, so the name holds no stack garbage
    // and stays the same from run to run.
    std::uint32_t zeroPad = 0;
    // Permitted max-abs error per unit operand norm for K=64 operands.
    double tolerance;
};
static_assert(sizeof(EngineErrorCase) ==
              sizeof(Encoding) + sizeof(std::uint32_t) + sizeof(double));

class GemmAccuracy : public ::testing::TestWithParam<EngineErrorCase>
{
};

TEST_P(GemmAccuracy, TracksReference)
{
    auto param = GetParam();
    auto engine = makeGemmEngine(param.encoding);
    Fp32Gemm reference;
    Rng rng(71);
    for (int trial = 0; trial < 10; ++trial) {
        std::size_t m = 1 + rng.uniformInt(0, 15);
        std::size_t k = 1 + rng.uniformInt(0, 63);
        std::size_t n = 1 + rng.uniformInt(0, 15);
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(k, n, rng);
        Matrix c_ref(m, n), c_eng(m, n);
        reference.multiply(a, b, c_ref, false);
        engine->multiply(a, b, c_eng, false);
        double norm = std::sqrt(static_cast<double>(k));
        EXPECT_LT(maxAbsDiff(c_ref, c_eng), param.tolerance * norm)
            << "engine " << engine->name() << " trial " << trial
            << " dims " << m << "x" << k << "x" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, GemmAccuracy,
    ::testing::Values(
        EngineErrorCase{.encoding = Encoding::Fp32, .tolerance = 1e-5},
        EngineErrorCase{.encoding = Encoding::Bfloat16, .tolerance = 0.05},
        EngineErrorCase{.encoding = Encoding::Hbfp8, .tolerance = 0.08}),
    [](const ::testing::TestParamInfo<EngineErrorCase> &info) {
        return encodingName(info.param.encoding);
    });

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, AllEnginesHandleRaggedShapes)
{
    auto [m, k, n] = GetParam();
    Rng rng(83);
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Fp32Gemm reference;
    Matrix c_ref(m, n);
    reference.multiply(a, b, c_ref, false);
    for (auto enc : {Encoding::Bfloat16, Encoding::Hbfp8}) {
        auto engine = makeGemmEngine(enc);
        Matrix c(m, n);
        engine->multiply(a, b, c, false);
        double norm = std::sqrt(static_cast<double>(k));
        EXPECT_LT(maxAbsDiff(c_ref, c), 0.1 * norm) << engine->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    RaggedSweep, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 300, 1},
                      std::tuple{3, 257, 5}, std::tuple{17, 256, 2},
                      std::tuple{2, 511, 2}, std::tuple{31, 64, 31}));

TEST(HbfpGemm, BlockLengthDoesNotChangeSemanticsMuch)
{
    // Different block lengths change where quantization boundaries fall
    // but must stay within the encoding's accuracy envelope.
    Rng rng(97);
    Matrix a = randomMatrix(8, 512, rng);
    Matrix b = randomMatrix(512, 8, rng);
    Fp32Gemm reference;
    Matrix c_ref(8, 8);
    reference.multiply(a, b, c_ref, false);
    for (std::size_t blk : {64u, 128u, 256u, 512u}) {
        HbfpGemm eng(hbfp8Format(), blk);
        Matrix c(8, 8);
        eng.multiply(a, b, c, false);
        EXPECT_LT(maxAbsDiff(c_ref, c), 0.1 * std::sqrt(512.0))
            << "block " << blk;
    }
}

TEST(HbfpGemm, SmallerBlocksAreMoreAccurate)
{
    // With outliers in the operand, smaller blocks localise the shared
    // exponent damage; aggregate error should not grow when blocks shrink.
    Rng rng(101);
    Matrix a = randomMatrix(4, 512, rng);
    Matrix b = randomMatrix(512, 4, rng);
    // Inject outliers to stress shared exponents.
    for (std::size_t i = 0; i < 16; ++i)
        a.at(rng.uniformInt(0, 3), rng.uniformInt(0, 511)) *= 64.0f;

    Fp32Gemm reference;
    Matrix c_ref(4, 4);
    reference.multiply(a, b, c_ref, false);

    auto total_err = [&](std::size_t blk) {
        HbfpGemm eng(hbfp8Format(), blk);
        Matrix c(4, 4);
        eng.multiply(a, b, c, false);
        double e = 0.0;
        for (std::size_t i = 0; i < c.size(); ++i)
            e += std::abs(c.data()[i] - c_ref.data()[i]);
        return e;
    };
    EXPECT_LT(total_err(32), total_err(512) + 1e-9);
}

TEST(Bf16Gemm, OutputIsBf16Representable)
{
    Rng rng(103);
    Matrix a = randomMatrix(4, 16, rng);
    Matrix b = randomMatrix(16, 4, rng);
    Bf16Gemm eng;
    Matrix c(4, 4);
    eng.multiply(a, b, c, false);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c.data()[i], roundToBf16(c.data()[i]));
}

TEST(GemmEngine, FactoryCoversAllEncodings)
{
    for (auto enc : {Encoding::Fp32, Encoding::Bfloat16, Encoding::Hbfp8}) {
        auto engine = makeGemmEngine(enc);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->encoding(), enc);
    }
}

} // namespace
} // namespace arith
} // namespace equinox
