//! Simulated hardware components.

use std::any::Any;
use std::fmt;

use crate::kernel::Ctx;

/// Identifies a [`Component`] registered with a
/// [`Simulation`](crate::Simulation).
///
/// Component ids are dense indices handed out at registration time; they are
/// the addresses of the intra-computer network at the kernel level.
///
/// # Example
///
/// ```
/// use pard_sim::ComponentId;
/// let id = ComponentId::from_raw(3);
/// assert_eq!(id.raw(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// A placeholder id used before wiring is complete.
    ///
    /// Sending to this id panics; it exists so that components can be
    /// constructed before their peers are known.
    pub const UNWIRED: ComponentId = ComponentId(u32::MAX);

    /// Creates an id from a raw index. Normally only the kernel does this.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        ComponentId(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Whether this id is the [`UNWIRED`](Self::UNWIRED) placeholder.
    #[inline]
    pub const fn is_unwired(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unwired() {
            write!(f, "ComponentId(UNWIRED)")
        } else {
            write!(f, "ComponentId({})", self.0)
        }
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A simulated hardware component: anything that receives events.
///
/// Components are single-threaded state machines. The kernel calls
/// [`Component::handle`] once per delivered event; the component may mutate
/// its own state and schedule further events through the [`Ctx`].
///
/// `Send` is a supertrait because [`par_map`](crate::par::par_map) moves
/// whole machines between worker threads (the fleet steps each machine on
/// whichever worker claims it, epoch by epoch). Only one thread ever
/// touches a component at a time — the bound is about *moving* a
/// simulation to a worker, not sharing it.
///
/// Implementors must also provide [`Component::as_any_mut`] /
/// [`Component::as_any`] so tests and wiring code can downcast; the
/// [`impl_as_any!`](crate::impl_as_any) macro writes those two methods.
pub trait Component<E>: Any + Send {
    /// A short human-readable name used in diagnostics.
    fn name(&self) -> &str;

    /// Handles one delivered event.
    fn handle(&mut self, ev: E, ctx: &mut Ctx<'_, E>);

    /// Upcasts to [`Any`] for downcasting in tests and wiring helpers.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast to [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the [`Any`](std::any::Any) plumbing methods of
/// [`Component`] for the enclosing type.
///
/// # Example
///
/// ```
/// use pard_sim::{Component, Ctx};
///
/// struct Sink;
/// impl Component<()> for Sink {
///     fn name(&self) -> &str { "sink" }
///     fn handle(&mut self, _ev: (), _ctx: &mut Ctx<'_, ()>) {}
///     pard_sim::impl_as_any!();
/// }
/// ```
#[macro_export]
macro_rules! impl_as_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwired_is_flagged() {
        assert!(ComponentId::UNWIRED.is_unwired());
        assert!(!ComponentId::from_raw(0).is_unwired());
        assert_eq!(
            format!("{:?}", ComponentId::UNWIRED),
            "ComponentId(UNWIRED)"
        );
        assert_eq!(format!("{}", ComponentId::from_raw(7)), "ComponentId(7)");
    }

    #[test]
    fn ids_order_by_raw_index() {
        assert!(ComponentId::from_raw(1) < ComponentId::from_raw(2));
    }
}
