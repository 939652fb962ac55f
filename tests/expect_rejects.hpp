#pragma once

#include <gtest/gtest.h>

// EXPECT_THROW for a [[nodiscard]] call: should the call return
// instead of throwing, its value is printed in the failure rather than
// dropped.
#define EXPECT_REJECTS(call, exception)                          \
  EXPECT_THROW(ADD_FAILURE() << "returned "                      \
                             << ::testing::PrintToString(call),  \
               exception)
