/**
 * @file
 * The fabric tests' coordinator sockets: Unix-domain paths under
 * testing::TempDir() that carry this process's pid, because ctest -j
 * runs the fabric test binaries at once under one TempDir() and two
 * coordinators bound to one path would take each other's workers.
 */

#ifndef FH_TESTS_FABRIC_SOCKET_HH
#define FH_TESTS_FABRIC_SOCKET_HH

#include <gtest/gtest.h>

#include <string>

#include <unistd.h>

#include "dist/wire.hh"

namespace fh::test
{

/** `<TempDir>/<name>.<pid>.sock`; listenOn replaces a stale file. */
inline dist::Endpoint
fabricSocket(const std::string &name)
{
    return {testing::TempDir() + name + "." + std::to_string(::getpid()) +
            ".sock"};
}

} // namespace fh::test

#endif // FH_TESTS_FABRIC_SOCKET_HH
