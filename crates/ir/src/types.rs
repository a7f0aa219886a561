//! The PIR type system: integers, pointers, named structs and arrays.
//!
//! Types matter to the analysis in two ways: pointer-ness decides which
//! variables participate in alias-graph updates, and struct fields drive the
//! field-sensitivity of typestate tracking and path validation (§3.2/§3.3 of
//! the paper).

use crate::module::StructId;
use std::fmt;

/// A PIR type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Type {
    /// The `void` type (function returns only).
    Void,
    /// A machine integer (mini-C `int`; also used for `char`, `long`, …).
    #[default]
    Int,
    /// A boolean produced by comparison instructions.
    Bool,
    /// A pointer to another type.
    Ptr(Box<Type>),
    /// A named struct defined in the owning [`crate::Module`].
    Struct(StructId),
    /// A fixed- or unknown-length array of an element type.
    Array(Box<Type>),
}

impl Type {
    /// Convenience constructor for a pointer to `inner`.
    ///
    /// ```
    /// use pata_ir::Type;
    /// let t = Type::ptr(Type::Int);
    /// assert!(t.is_pointer());
    /// ```
    pub fn ptr(inner: Type) -> Type {
        Type::Ptr(Box::new(inner))
    }

    /// Convenience constructor for an array of `elem`.
    pub fn array(elem: Type) -> Type {
        Type::Array(Box::new(elem))
    }

    /// Whether this type is a pointer.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// Whether this type is an integer.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::Int)
    }

    /// The type obtained by dereferencing this one, if it is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(inner) => Some(inner),
            _ => None,
        }
    }

    /// The struct id this type names, looking through one level of pointer.
    ///
    /// `struct S*` and `struct S` both yield the id of `S`; used by the
    /// analysis to enumerate fields for implicit-constraint accounting.
    pub fn struct_id(&self) -> Option<StructId> {
        match self {
            Type::Struct(id) => Some(*id),
            Type::Ptr(inner) => match inner.as_ref() {
                Type::Struct(id) => Some(*id),
                _ => None,
            },
            _ => None,
        }
    }

    /// Element type if this is an array (or pointer used as an array).
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Array(elem) => Some(elem),
            Type::Ptr(inner) => Some(inner),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
            Type::Struct(id) => write!(f, "struct#{}", id.index()),
            Type::Array(elem) => write!(f, "{elem}[]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_helpers() {
        let t = Type::ptr(Type::ptr(Type::Int));
        assert!(t.is_pointer());
        assert_eq!(t.pointee(), Some(&Type::ptr(Type::Int)));
        assert_eq!(t.pointee().unwrap().pointee(), Some(&Type::Int));
        assert!(!Type::Int.is_pointer());
        assert!(Type::Int.pointee().is_none());
    }

    #[test]
    fn struct_id_through_pointer() {
        let sid = StructId::from_index(3);
        assert_eq!(Type::Struct(sid).struct_id(), Some(sid));
        assert_eq!(Type::ptr(Type::Struct(sid)).struct_id(), Some(sid));
        assert_eq!(Type::ptr(Type::ptr(Type::Struct(sid))).struct_id(), None);
        assert_eq!(Type::Int.struct_id(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::ptr(Type::Int).to_string(), "int*");
        assert_eq!(Type::array(Type::Int).to_string(), "int[]");
        assert_eq!(Type::Void.to_string(), "void");
    }
}
