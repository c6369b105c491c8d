//! Storage URIs as they appear in the cluster configuration file:
//! `s3://bucket/prefix` and `hdfs://host:port/path`.

use crate::StorageError;

/// Parsed form of the `storage =` line of an OmpCloud configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageUri {
    /// `s3://bucket[/prefix]`
    S3 {
        /// Bucket name.
        bucket: String,
        /// Key prefix inside the bucket.
        prefix: String,
    },
    /// `hdfs://host:port[/path]`
    Hdfs {
        /// Namenode host.
        host: String,
        /// Namenode port (default 8020).
        port: u16,
        /// Directory path inside HDFS.
        path: String,
    },
    /// `azure://account/container[/prefix]` (Microsoft Azure Storage)
    Azure {
        /// Storage account name.
        account: String,
        /// Container name.
        container: String,
        /// Blob name prefix.
        prefix: String,
    },
}

impl StorageUri {
    /// Parse a URI string.
    pub fn parse(uri: &str) -> Result<StorageUri, StorageError> {
        if let Some(rest) = uri.strip_prefix("s3://") {
            let (bucket, prefix) = match rest.split_once('/') {
                Some((b, p)) => (b, p),
                None => (rest, ""),
            };
            if bucket.is_empty() {
                return Err(StorageError::BadUri(format!("{uri}: empty bucket name")));
            }
            if bucket.contains(|c: char| {
                !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '.')
            }) {
                return Err(StorageError::BadUri(format!(
                    "{uri}: invalid bucket name '{bucket}'"
                )));
            }
            Ok(StorageUri::S3 {
                bucket: bucket.to_string(),
                prefix: prefix.to_string(),
            })
        } else if let Some(rest) = uri.strip_prefix("azure://") {
            let mut parts = rest.splitn(3, '/');
            let account = parts.next().unwrap_or("");
            let container = parts.next().unwrap_or("");
            let prefix = parts.next().unwrap_or("");
            if account.is_empty() || container.is_empty() {
                return Err(StorageError::BadUri(format!(
                    "{uri}: expected azure://account/container[/prefix]"
                )));
            }
            Ok(StorageUri::Azure {
                account: account.to_string(),
                container: container.to_string(),
                prefix: prefix.to_string(),
            })
        } else if let Some(rest) = uri.strip_prefix("hdfs://") {
            let (authority, path) = match rest.split_once('/') {
                Some((a, p)) => (a, format!("/{p}")),
                None => (rest, String::from("/")),
            };
            let (host, port) = match authority.split_once(':') {
                Some((h, p)) => {
                    let port: u16 = p
                        .parse()
                        .map_err(|_| StorageError::BadUri(format!("{uri}: bad port '{p}'")))?;
                    (h, port)
                }
                None => (authority, 8020u16),
            };
            if host.is_empty() {
                return Err(StorageError::BadUri(format!("{uri}: empty host")));
            }
            Ok(StorageUri::Hdfs {
                host: host.to_string(),
                port,
                path,
            })
        } else {
            Err(StorageError::BadUri(format!(
                "{uri}: unknown scheme (expected s3://, hdfs:// or azure://)"
            )))
        }
    }

    /// The key prefix under which offloaded buffers are stored.
    pub fn key_prefix(&self) -> &str {
        match self {
            StorageUri::S3 { prefix, .. } => prefix,
            StorageUri::Hdfs { path, .. } => path.trim_start_matches('/'),
            StorageUri::Azure { prefix, .. } => prefix,
        }
    }

    /// `leaf` under the key prefix: `<prefix>/<leaf>`, or `leaf` alone
    /// when the URI names no prefix.
    pub fn key_under(&self, leaf: &str) -> String {
        match self.key_prefix() {
            "" => leaf.to_string(),
            prefix => format!("{prefix}/{leaf}"),
        }
    }

    /// Scheme label.
    pub fn scheme(&self) -> &'static str {
        match self {
            StorageUri::S3 { .. } => "s3",
            StorageUri::Hdfs { .. } => "hdfs",
            StorageUri::Azure { .. } => "azure",
        }
    }
}

impl std::fmt::Display for StorageUri {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageUri::S3 { bucket, prefix } if prefix.is_empty() => write!(f, "s3://{bucket}"),
            StorageUri::S3 { bucket, prefix } => write!(f, "s3://{bucket}/{prefix}"),
            StorageUri::Hdfs { host, port, path } => write!(f, "hdfs://{host}:{port}{path}"),
            StorageUri::Azure {
                account,
                container,
                prefix,
            } if prefix.is_empty() => {
                write!(f, "azure://{account}/{container}")
            }
            StorageUri::Azure {
                account,
                container,
                prefix,
            } => {
                write!(f, "azure://{account}/{container}/{prefix}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_s3_with_and_without_prefix() {
        assert_eq!(
            StorageUri::parse("s3://my-bucket/jobs/run1").unwrap(),
            StorageUri::S3 {
                bucket: "my-bucket".into(),
                prefix: "jobs/run1".into()
            }
        );
        assert_eq!(
            StorageUri::parse("s3://my-bucket").unwrap(),
            StorageUri::S3 {
                bucket: "my-bucket".into(),
                prefix: "".into()
            }
        );
    }

    #[test]
    fn parses_hdfs_default_port() {
        assert_eq!(
            StorageUri::parse("hdfs://namenode/data").unwrap(),
            StorageUri::Hdfs {
                host: "namenode".into(),
                port: 8020,
                path: "/data".into()
            }
        );
        assert_eq!(
            StorageUri::parse("hdfs://10.0.0.5:9000/omp").unwrap(),
            StorageUri::Hdfs {
                host: "10.0.0.5".into(),
                port: 9000,
                path: "/omp".into()
            }
        );
    }

    #[test]
    fn rejects_bad_uris() {
        for bad in [
            "http://x",
            "s3://",
            "s3://UPPER",
            "hdfs://",
            "hdfs://h:notaport/x",
            "azure://acct",
            "",
        ] {
            assert!(StorageUri::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_azure() {
        assert_eq!(
            StorageUri::parse("azure://myacct/jobs/run1").unwrap(),
            StorageUri::Azure {
                account: "myacct".into(),
                container: "jobs".into(),
                prefix: "run1".into()
            }
        );
        assert_eq!(
            StorageUri::parse("azure://myacct/jobs")
                .unwrap()
                .key_prefix(),
            ""
        );
        assert_eq!(
            StorageUri::parse("azure://a/c/p").unwrap().scheme(),
            "azure"
        );
    }

    #[test]
    fn display_roundtrips() {
        for s in [
            "s3://bkt/pre/fix",
            "s3://bkt",
            "hdfs://h:9000/p",
            "azure://a/c",
            "azure://a/c/p",
        ] {
            assert_eq!(StorageUri::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn key_prefix_extraction() {
        assert_eq!(StorageUri::parse("s3://b/p/q").unwrap().key_prefix(), "p/q");
        assert_eq!(
            StorageUri::parse("hdfs://h/omp/data").unwrap().key_prefix(),
            "omp/data"
        );
    }
}
