//! Stats structs that know their own difference and sum.
//!
//! Every stats struct in the workspace is a bag of counters (running
//! totals) plus a few levels (gauges such as a table's occupancy, peaks
//! such as the largest RTO armed). A harness needs two operations on such
//! a struct: the delta one host accrued over a timed window, and the sum
//! over every host of a cluster. [`counters!`](crate::counters) derives
//! both from the struct's own field list, so a counter added to the struct
//! is diffed and summed without a second list to keep in step.

use crate::SimDuration;

/// A stats value with a difference and a sum.
///
/// Counters subtract and add; levels keep the later value in a difference
/// and the larger value in a sum. Structs get the impl from
/// [`counters!`](crate::counters); nested counter structs and
/// [`SimDuration`] totals follow the same two rules.
pub trait Tally {
    /// What accrued between `before` and `self`: each counter minus its
    /// value in `before`, each level as it stands in `self`.
    fn since(&self, before: &Self) -> Self;

    /// Folds `other` into `self`: counters add, levels keep the larger.
    fn tally(&mut self, other: &Self);
}

impl Tally for u64 {
    fn since(&self, before: &u64) -> u64 {
        self - before
    }

    fn tally(&mut self, other: &u64) {
        *self += other;
    }
}

impl Tally for SimDuration {
    fn since(&self, before: &SimDuration) -> SimDuration {
        *self - *before
    }

    fn tally(&mut self, other: &SimDuration) {
        *self += *other;
    }
}

/// Declares a stats struct and derives its [`Tally`] impl from the fields.
///
/// The struct is emitted exactly as written: fields, order, types,
/// visibility, docs and derives. Every field is a counter unless
/// `#[level]` follows its doc comment; a level must be `Copy + Ord`. A
/// counter's type implements [`Tally`]: `u64`, [`SimDuration`], or another
/// struct declared with this macro.
///
/// ```
/// use simcore::{SimDuration, Tally};
///
/// simcore::counters! {
///     /// One host's books.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Books {
///         /// Calls served.
///         pub calls: u64,
///         /// Entries live right now.
///         #[level]
///         pub live: u64,
///         /// Time spent serving.
///         pub busy: SimDuration,
///     }
/// }
///
/// let before = Books { calls: 3, live: 9, busy: SimDuration::from_nanos(5) };
/// let after = Books { calls: 10, live: 4, busy: SimDuration::from_nanos(8) };
/// let delta = after.since(&before);
/// assert_eq!((delta.calls, delta.live, delta.busy.as_nanos()), (7, 4, 3));
/// let mut sum = before;
/// sum.tally(&after);
/// assert_eq!((sum.calls, sum.live, sum.busy.as_nanos()), (13, 9, 13));
/// ```
#[macro_export]
macro_rules! counters {
    // Every field read: emit the struct and its impl.
    (@fields $name:ident [$($head:tt)*] [$($kind:ident $f:ident [$($decl:tt)*])*]) => {
        $($head)* { $($($decl)*,)* }

        impl $crate::Tally for $name {
            fn since(&self, before: &Self) -> Self {
                $name { $($f: $crate::counters!(@since $kind self.$f, before.$f),)* }
            }

            fn tally(&mut self, other: &Self) {
                $($crate::counters!(@tally $kind self.$f, other.$f);)*
            }
        }
    };
    (@fields $name:ident $head:tt [$($acc:tt)*]
        $(#[doc = $doc:literal])* #[level] $v:vis $f:ident : $t:ty $(, $($rest:tt)*)?) => {
        $crate::counters!(@fields $name $head
            [$($acc)* level $f [$(#[doc = $doc])* $v $f: $t]] $($($rest)*)?);
    };
    (@fields $name:ident $head:tt [$($acc:tt)*]
        $(#[$m:meta])* $v:vis $f:ident : $t:ty $(, $($rest:tt)*)?) => {
        $crate::counters!(@fields $name $head
            [$($acc)* counter $f [$(#[$m])* $v $f: $t]] $($($rest)*)?);
    };
    (@since counter $now:expr, $then:expr) => { $crate::Tally::since(&$now, &$then) };
    (@since level $now:expr, $then:expr) => { $now };
    (@tally counter $acc:expr, $x:expr) => { $crate::Tally::tally(&mut $acc, &$x) };
    (@tally level $acc:expr, $x:expr) => { $acc = ::core::cmp::max($acc, $x) };
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($body:tt)* }) => {
        $crate::counters!(@fields $name [$(#[$meta])* $vis struct $name] [] $($body)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::{SimDuration, Tally};

    crate::counters! {
        /// A nested counter struct.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Inner {
            sent: u64,
            /// Largest value seen.
            #[level]
            peak: SimDuration,
        }
    }

    crate::counters! {
        /// One of each kind of field.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Toy {
            /// A counter.
            hits: u64,
            /// A gauge.
            #[level]
            live: u64,
            busy: SimDuration,
            inner: Inner,
        }
    }

    fn toy(hits: u64, live: u64, busy: u64, sent: u64, peak: u64) -> Toy {
        Toy {
            hits,
            live,
            busy: SimDuration::from_nanos(busy),
            inner: Inner {
                sent,
                peak: SimDuration::from_nanos(peak),
            },
        }
    }

    #[test]
    fn since_subtracts_counters_and_keeps_the_later_level() {
        let before = toy(5, 40, 100, 7, 900);
        let after = toy(12, 3, 250, 20, 600);
        assert_eq!(after.since(&before), toy(7, 3, 150, 13, 600));
        assert_eq!(after.since(&Toy::default()), after);
        assert_eq!(after.since(&after), toy(0, 3, 0, 0, 600));
    }

    #[test]
    fn tally_adds_counters_and_keeps_the_larger_level() {
        let mut sum = toy(5, 40, 100, 7, 600);
        sum.tally(&toy(12, 3, 250, 20, 900));
        assert_eq!(sum, toy(17, 40, 350, 27, 900));
        let mut from_zero = Toy::default();
        from_zero.tally(&sum);
        assert_eq!(from_zero, sum);
    }

    #[test]
    fn the_declared_struct_is_unchanged() {
        // Field order is the declaration order (derived `Debug` shows it),
        // and `#[level]` leaves no trace on the struct.
        assert_eq!(
            format!("{:?}", toy(1, 2, 3, 4, 5)),
            "Toy { hits: 1, live: 2, busy: 3ns, inner: Inner { sent: 4, peak: 5ns } }"
        );
    }
}
