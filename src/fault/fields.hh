/**
 * @file
 * Field lists: each campaign counter struct lists its members once, as
 * (FH_JSON key, member pointer) pairs returned by its static fields(),
 * and the merge, the journal packing, FH_JSON and fhsim's stderr
 * summary loop over that list instead of naming fields.
 */

#ifndef FH_FAULT_FIELDS_HH
#define FH_FAULT_FIELDS_HH

#include <array>
#include <tuple>

namespace fh::fault
{

/** One member of S and its FH_JSON key. */
template <class S, class T>
struct Field
{
    const char *key;
    T S::*member;
};

/** Call fn on each field of a list (std::array or std::tuple). */
template <class List, class Fn>
constexpr void
forEachField(const List &list, Fn &&fn)
{
    std::apply([&](const auto &...f) { (fn(f), ...); }, list);
}

/** a.m += b.m for every member m in S::fields(). */
template <class S>
constexpr S &
addFields(S &a, const S &b)
{
    forEachField(S::fields(),
                 [&](const auto &f) { a.*f.member += b.*f.member; });
    return a;
}

} // namespace fh::fault

#endif // FH_FAULT_FIELDS_HH
